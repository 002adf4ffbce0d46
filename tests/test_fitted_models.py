"""Stored reference-model fits: the refit oracle and the cache-safety rules.

A default build loads a model's stored fit (``repro/models/fitted``) only on
an exact fit-key match; anything else refits. ``fit_calls`` counts refits.
"""

import dataclasses
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.models import MODEL_REGISTRY, create_reference_model, fitting

ROOT = pathlib.Path(__file__).resolve().parent.parent
STORED = sorted(path.stem for path in fitting.FITTED_DIR.glob("*.npz"))


@pytest.fixture()
def fit_calls(monkeypatch):
    """Fit seeds of the refits a build makes; the stand-in fits nothing."""
    calls = []
    monkeypatch.setattr(fitting, "fit_reference_heads",
                        lambda bundle, seed: calls.append(seed))
    return calls


def copy_stored(name: str, directory: pathlib.Path, **overrides) -> None:
    """Copy ``name``'s stored fit into ``directory``, replacing some entries."""
    with np.load(fitting.FITTED_DIR / f"{name}.npz", allow_pickle=False) as stored:
        entries = {entry: stored[entry] for entry in stored.files}
    np.savez(directory / f"{name}.npz", **{**entries, **overrides})


def test_stored_fits_match_refit():
    """``tools/fitted_models.py --check``: every stored fit is byte-equal to a
    refit at 2 BLAS threads. It runs in a subprocess because the tool pins the
    thread count before NumPy loads, which this process can no longer do."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "fitted_models.py"), "--check"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_every_fitted_model_is_stored():
    """MobileBERT alone is unfitted: QA is evaluated oracle-relative."""
    assert STORED == sorted(set(MODEL_REGISTRY) - {"mobilebert"})


@pytest.mark.parametrize("name", STORED)
def test_default_build_loads(fit_calls, name):
    bundle = create_reference_model(name)
    assert fit_calls == []
    key = fitting.fit_key(create_reference_model(name, fitted=False), fitting.FIT_SEED)
    assert bundle.graph.metadata["head_fit"]["key"] == key


def test_other_seed_refits(fit_calls):
    create_reference_model("mobilenet_edgetpu", seed=99)
    assert fit_calls == [99 + fitting.FIT_SEED]


def test_edited_registry_entry_refits(fit_calls, monkeypatch):
    entry = MODEL_REGISTRY["mobilenet_edgetpu"]
    edited = dataclasses.replace(
        entry, reference_kwargs={**entry.reference_kwargs, "num_classes": 50})
    monkeypatch.setitem(MODEL_REGISTRY, "mobilenet_edgetpu", edited)
    create_reference_model("mobilenet_edgetpu")
    assert fit_calls == [fitting.FIT_SEED]


def bump_bias(bundle):
    bundle.graph.params["classifier/b"] = bundle.graph.params["classifier/b"] + 1.0


def annotate_config(bundle):
    bundle.config["edited"] = True


@pytest.mark.parametrize("edit", [bump_bias, annotate_config])
def test_edited_builder_refits(fit_calls, monkeypatch, edit):
    """A builder edit that leaves the registry entry's kwargs alone."""
    entry = MODEL_REGISTRY["mobilenet_edgetpu"]

    def factory(**kwargs):
        bundle = entry.factory(**kwargs)
        edit(bundle)
        return bundle

    monkeypatch.setitem(MODEL_REGISTRY, "mobilenet_edgetpu",
                        dataclasses.replace(entry, factory=factory))
    create_reference_model("mobilenet_edgetpu")
    assert fit_calls == [fitting.FIT_SEED]


@pytest.mark.parametrize("tampered,refits", [(False, 0), (True, 1)])
def test_tampered_key_refits(fit_calls, monkeypatch, tmp_path, tampered, refits):
    overrides = {fitting.KEY_ENTRY: np.array("0" * 64)} if tampered else {}
    copy_stored("mobilenet_edgetpu", tmp_path, **overrides)
    monkeypatch.setattr(fitting, "FITTED_DIR", tmp_path)
    create_reference_model("mobilenet_edgetpu")
    assert len(fit_calls) == refits


def test_loaded_equals_refit(monkeypatch, tmp_path):
    """Same param bytes and provenance, whether loaded or refitted (in this
    process's BLAS threads: MobileNetEdgeTPU's fit does not depend on them)."""
    loaded = create_reference_model("mobilenet_edgetpu")
    monkeypatch.setattr(fitting, "FITTED_DIR", tmp_path)  # nothing stored
    refit = create_reference_model("mobilenet_edgetpu")
    assert loaded.graph.checksum() == refit.graph.checksum()
    assert loaded.graph.metadata["head_fit"] == refit.graph.metadata["head_fit"]
