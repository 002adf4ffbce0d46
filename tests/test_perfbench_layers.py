"""The repo benchmark's traced mode patches names in the program by name
(``perfbench.layers.Instrument``). A renamed or removed target would only
surface in a traced benchmark run; entering the instrument here catches it,
and leaving it must put every original back."""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    layers = importlib.import_module("perfbench.layers")
    tracing = importlib.import_module("perfbench.tracing")
    return layers.Instrument, tracing.Tracer


def test_instrument_patches_and_restores_every_name(perfbench):
    import repro.core.harness as harness

    instrument_cls, tracer_cls = perfbench
    originals = {name: getattr(harness, name) for name in (
        "calibrate", "quantize_graph", "convert_fp16", "create_dataset",
        "create_reference_model", "create_full_model", "export_mobile")}

    with instrument_cls(tracer_cls()) as instrument:
        patched = list(instrument._undo)
        for name, original in originals.items():
            assert getattr(harness, name) is not original, f"harness.{name} not wrapped"
        for owner, attr, original in patched:
            assert vars(owner).get(attr) is not original, f"{owner}.{attr} not wrapped"

    assert patched
    for owner, attr, original in patched:
        assert vars(owner).get(attr) is original, f"{owner}.{attr} not restored"
    for name, original in originals.items():
        assert getattr(harness, name) is original
