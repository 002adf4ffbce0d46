"""``tools/references.py``: it owns every checked-in reference file, the
session's check of all of them passes, and the check can fail."""

from __future__ import annotations

import dataclasses
import json

import pytest

import references
from repro import store
from repro.datasets import squad
from repro.models import fitting

ROOT = references.ROOT


def test_every_reference_matches(reference_check):
    proc, verdicts = reference_check
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(verdicts) == set(references.REGISTRY)


def test_registry_owns_every_reference_file():
    """Each reference file, and each file in the store, has exactly one entry,
    so a new one cannot bypass the check, and the entries own the files the
    runtime loads."""
    owned = sorted(path for ref in references.REGISTRY.values() for path in ref.owned())
    expected = sorted({*ROOT.glob("tests/*.json"),
                       *(path for path in store.STORE_DIR.rglob("*") if path.is_file()),
                       ROOT / "benchmarks" / "results" / "STATICCHECK.json"})
    assert owned == [path.resolve() for path in expected]
    for kind in (fitting.FITS, squad.SPANS):
        assert ROOT / references.REGISTRY[kind].path == store.path(kind, "*").resolve()


def test_check_fails_on_a_changed_value_and_write_restores_it(monkeypatch, tmp_path, capsys):
    """The simulator oracle's entry, pointed at a copy of its file with one
    float changed. Its computation stands in as the checked-in bytes: that a
    fresh one gives them is the session check's job."""
    ref = references.REGISTRY["simulator_oracle"]
    stored = (ROOT / ref.path).read_bytes()
    oracle = json.loads(stored)
    row = oracle["exynos_990/semantic_segmentation"]["final"]
    row[0] = (float.fromhex(row[0]) + 1.0).hex()
    copy = tmp_path / "simulator_oracle.json"
    copy.write_bytes(references.json_bytes(oracle, indent=1))
    monkeypatch.setitem(references.REGISTRY, "simulator_oracle",
                        dataclasses.replace(ref, path=str(copy), compute=lambda: stored))
    assert references.main(["--check", "simulator_oracle"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "MISMATCH simulator_oracle exynos_990/semantic_segmentation: final" in lines
    assert sum(line.startswith("ok ") for line in lines) == len(lines) - 1
    assert references.main(["--write", "simulator_oracle"]) == 0
    assert copy.read_bytes() == stored
    assert references.main(["--check", "simulator_oracle"]) == 0


@pytest.mark.parametrize("argv", [["--write", "golden"], ["--check", "staticcheck", "oracle"],
                                  ["--write", "staticcheck", "simulator_oracle"]])
def test_unknown_names_are_rejected(argv):
    with pytest.raises(SystemExit) as exit_info:
        references.main(argv)
    assert exit_info.value.code == 2


def test_pinned_entry_refuses_a_loaded_numpy():
    """This process has loaded NumPy at its own BLAS thread count, so an entry
    that needs the pin refuses to check here rather than check unpinned."""
    with pytest.raises(RuntimeError, match="BLAS pin"):
        references.main(["--check", "dataset_oracle", "golden_outputs"])
