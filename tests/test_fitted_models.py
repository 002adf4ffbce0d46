"""Stored reference-model fits and SQuAD oracle spans: the recomputation
oracle and the cache-safety rules.

A default build loads a model's stored fit (``repro/models/fitted``) only on
an exact fit-key match; anything else refits. ``fit_calls`` counts refits.
SQuAD synthesis reads the stored oracle spans only on an exact key match;
anything else runs the oracle pass. ``oracle_calls`` counts those passes.
"""

import dataclasses
import hashlib
import json
import pathlib
from collections import Counter

import numpy as np
import pytest

from repro.core import QUICK_RULES, BenchmarkHarness
from repro.datasets import DEFAULT_SIZES, create_dataset, squad
from repro.graph.plan import ExecutionPlan
from repro.models import MODEL_REGISTRY, create_reference_model, fitting

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


def test_stored_fits_match_refit(reference_check):
    """Every stored fit is byte-equal to a refit at 2 BLAS threads, and no
    fitted model's file is missing or stale."""
    proc, verdicts = reference_check
    assert verdicts.get("fitted_models") == dict.fromkeys(STORED, "ok"), proc.stdout + proc.stderr


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


# -- stored SQuAD oracle spans ----------------------------------------------

@pytest.fixture()
def oracle_calls(monkeypatch):
    """Sample counts of the oracle passes a synthesis makes; the stand-in
    labels each sample with its first passage token."""
    calls = []

    def stand_in(graph, feeds, context_starts):
        calls.append(len(context_starts))
        return [(int(c), int(c)) for c in context_starts]

    monkeypatch.setattr(squad, "run_oracle", stand_in)
    return calls


def copy_spans(directory: pathlib.Path, **overrides) -> pathlib.Path:
    """Copy the stored spans into ``directory``, replacing some entries."""
    stored = json.loads(squad.STORED_SPANS.read_text())
    path = directory / squad.STORED_SPANS.name
    path.write_text(json.dumps({**stored, **overrides}))
    return path


def test_default_squad_loads_spans(oracle_calls, qa_bundle, qa_exported):
    ds = create_dataset("squad", qa_exported, qa_bundle.config)
    assert oracle_calls == []
    assert len(ds) == DEFAULT_SIZES["squad"]


@pytest.mark.parametrize("size,seed", [(48, None), (None, 46)])
def test_other_size_or_seed_relabels(oracle_calls, qa_bundle, qa_exported, size, seed):
    create_dataset("squad", qa_exported, qa_bundle.config, size=size, seed=seed)
    assert oracle_calls == [size or DEFAULT_SIZES["squad"]]


@pytest.mark.parametrize("constant,value", [
    ("ORACLE_VERSION", squad.ORACLE_VERSION + 1),
    ("MAX_ANSWER_LENGTH", squad.MAX_ANSWER_LENGTH - 1),
    ("ORACLE_BATCH", squad.ORACLE_BATCH // 2),
])
def test_stale_recipe_relabels(oracle_calls, monkeypatch, qa_bundle, qa_exported,
                               constant, value):
    monkeypatch.setattr(squad, constant, value)
    create_dataset("squad", qa_exported, qa_bundle.config)
    assert oracle_calls == [DEFAULT_SIZES["squad"]]


def test_edited_oracle_graph_relabels(oracle_calls, qa_bundle, qa_exported):
    graph = qa_exported.clone()
    graph.params["qa_head/b"] = graph.params["qa_head/b"] + 1.0
    create_dataset("squad", graph, qa_bundle.config)
    assert oracle_calls == [DEFAULT_SIZES["squad"]]


@pytest.mark.parametrize("tampered,passes", [(False, 0), (True, 1)])
def test_tampered_spans_key_relabels(oracle_calls, monkeypatch, tmp_path, qa_bundle,
                                     qa_exported, tampered, passes):
    overrides = {"key": "0" * 64} if tampered else {}
    monkeypatch.setattr(squad, "STORED_SPANS", copy_spans(tmp_path, **overrides))
    create_dataset("squad", qa_exported, qa_bundle.config)
    assert len(oracle_calls) == passes


def test_missing_spans_relabel(oracle_calls, monkeypatch, tmp_path, qa_bundle, qa_exported):
    monkeypatch.setattr(squad, "STORED_SPANS", tmp_path / squad.STORED_SPANS.name)
    create_dataset("squad", qa_exported, qa_bundle.config)
    assert oracle_calls == [DEFAULT_SIZES["squad"]]


def test_cold_qa_suite_runs_each_batch_once(monkeypatch):
    """A cold suite at the default SQuAD size executes no (graph, feed batch)
    twice: synthesis reads the stored spans instead of running the FP32
    reference graph over the batches accuracy mode runs it on again."""
    runs = Counter()
    run = ExecutionPlan.run

    def counted(plan, feeds, *args, **kwargs):
        h = hashlib.sha256()
        for name in sorted(feeds):
            h.update(name.encode() + np.ascontiguousarray(feeds[name]).tobytes())
        runs[plan.graph.name, h.hexdigest()] += 1
        return run(plan, feeds, *args, **kwargs)

    monkeypatch.setattr(ExecutionPlan, "run", counted)
    harness = BenchmarkHarness(version="v1.0", rules=QUICK_RULES)
    suite = harness.run_suite("dimensity_1100", backend_name="neuron",
                              tasks=["question_answering"])
    assert suite.degraded_tasks == []
    assert len({graph for graph, _ in runs}) == 2  # the FP32 reference and the FP16 deployment
    assert [key for key, count in runs.items() if count > 1] == []
