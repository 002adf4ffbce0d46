"""Stored reference-model fits and SQuAD oracle spans (``repro.store``): the
recomputation oracle and the cache-safety rules.

A default build loads a model's stored fit only on an exact fit-key match;
anything else refits. ``fit_calls`` counts refits. SQuAD synthesis reads the
stored oracle spans only on an exact key match; anything else runs the oracle
pass. ``oracle_calls`` counts those passes.
"""

import dataclasses
import functools
import hashlib
from collections import Counter

import numpy as np
import pytest

from references import array_item
from repro import store
from repro.core import QUICK_RULES, BenchmarkHarness
from repro.datasets import DEFAULT_SIZES, create_dataset, squad
from repro.graph.plan import ExecutionPlan
from repro.models import MODEL_REGISTRY, create_reference_model, fitting

STORED = sorted(path.stem for path in store.path(fitting.FITS, "*").parent.glob("*.npz"))


@pytest.fixture()
def fit_calls(monkeypatch):
    """Fit seeds of the refits a build makes; the stand-in fits nothing."""
    calls = []
    monkeypatch.setattr(fitting, "fit_reference_heads",
                        lambda bundle, seed: calls.append(seed))
    return calls


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


def test_loaded_equals_refit(reference_check):
    """A default build carries exactly the stored entries and key, and the
    session's reference check refit the stored fit byte for byte: so a load
    gives the params and ``head_fit`` a refit gives."""
    assert reference_check[1]["fitted_models"]["mobilenet_edgetpu"] == "ok"
    graph = create_reference_model("mobilenet_edgetpu").graph
    key = graph.metadata["head_fit"]["key"]
    stored = store.load(fitting.FITS, "mobilenet_edgetpu", key)
    assert graph.metadata["head_fit"] == {**stored.pop(fitting.HEAD_FIT_ENTRY), "key": key}
    assert [array_item(graph.params[p]) for p in stored] == list(map(array_item, stored.values()))


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


# -> (the store's kind, file, fixture counting recomputes, the call that reads it)
STORED_KINDS = {
    "fits": (fitting.FITS, "mobilenet_edgetpu", "fit_calls",
             lambda request: functools.partial(create_reference_model, "mobilenet_edgetpu")),
    "spans": (squad.SPANS, squad.STORED_SET, "oracle_calls",
              lambda request: functools.partial(
                  create_dataset, "squad", request.getfixturevalue("qa_exported"),
                  request.getfixturevalue("qa_bundle").config)),
}


@pytest.mark.parametrize("kind,state", [(kind, state) for kind in STORED_KINDS
                                        for state in ("intact", "tampered", "missing")])
def test_stored_file_serves_only_its_key(request, monkeypatch, tmp_path, kind, state):
    """A copy of the stored file is served intact; with its key tampered, or
    with no file, the reader recomputes exactly once."""
    store_kind, name, counter, reader = STORED_KINDS[kind]
    read_file = reader(request)
    calls = request.getfixturevalue(counter)
    entries = store.read(store.path(store_kind, name).read_bytes())
    monkeypatch.setattr(store, "STORE_DIR", tmp_path)
    if state != "missing":
        key = entries.pop(store.KEY_ENTRY) if state == "intact" else "0" * 64
        store.path(store_kind, name).parent.mkdir()
        store.path(store_kind, name).write_bytes(store.dump(entries, key))
    read_file()
    assert len(calls) == (state != "intact")


def test_store_round_trip():
    """Equal entries give equal bytes; a read gives back the key, the metadata
    and each array's dtype, shape and (C-order) bytes."""
    arrays = {"w": np.arange(12, dtype=np.float32).reshape(3, 4).T, "ids": np.arange(5)}
    data = store.dump({**arrays, "__meta__": {"n": 2}}, "k")
    assert store.dump({"__meta__": {"n": 2}, **arrays}, "k") == data
    read = store.read(data)
    assert (read.pop(store.KEY_ENTRY), read.pop("__meta__")) == ("k", {"n": 2})
    assert {entry: array_item(arr) for entry, arr in read.items()} == {
        entry: array_item(arr) for entry, arr in arrays.items()}


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
