"""Chart rendering and the live evaluation report."""

import pytest

from repro.analysis import bar_chart, grouped_bar_chart
from repro.core.app import main


class TestBarChart:
    def test_scaling(self):
        text = bar_chart({"a": 10.0, "b": 5.0}, width=10)
        lines = text.splitlines()
        assert lines[0].count("█") == 10
        assert lines[1].count("█") == 5

    def test_title_and_units(self):
        text = bar_chart({"x": 1.0}, title="speeds:", unit=" fps")
        assert text.startswith("speeds:")
        assert "1.00 fps" in text

    def test_minimum_one_block(self):
        text = bar_chart({"big": 1000.0, "tiny": 0.001}, width=20)
        assert all("█" in line for line in text.splitlines())

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bar_chart({})

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            bar_chart({"a": 0.0})


class TestGroupedBarChart:
    def test_groups_rendered(self):
        text = grouped_bar_chart({"g1": {"a": 2.0}, "g2": {"a": 4.0}}, width=8)
        assert "g1:" in text and "g2:" in text
        # bars share one global scale across groups
        lines = [l for l in text.splitlines() if "█" in l]
        assert lines[1].count("█") == 2 * lines[0].count("█")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            grouped_bar_chart({})


class TestReportCLI:
    def test_report(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out
        assert "Figure 7" in out
        assert "Table 2" in out
        assert "Table 3" in out
        assert "Table 4" in out
        assert "MLPerf Mobile" in out
        assert "█" in out  # charts actually rendered
