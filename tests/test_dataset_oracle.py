"""Exactness oracle for the six synthetic datasets: the ``dataset_oracle``
entry of ``tools/references.py`` (``tests/dataset_oracle.json``).

For each dataset at a small size: the SHA-256 of its feeds, calibration
batches and ground truth, its length, and by ``float.hex`` the metric of the
FP32 graph's outputs and, where truths are valid predictions, of the truths.
It catches any change to a generated byte, a batch split, a label or a
metric. The tests read the session's one registry check.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from references import DATASET_CASES
from repro import store
from repro.datasets import DATASET_REGISTRY, squad
from repro.graph import export_mobile
from repro.models import create_reference_model

ORACLE = pathlib.Path(__file__).with_name("dataset_oracle.json")


@pytest.mark.parametrize("name", sorted(DATASET_CASES))
def test_dataset_matches_oracle(reference_check, name):
    proc, verdicts = reference_check
    assert verdicts.get("dataset_oracle", {}).get(name) == "ok", proc.stdout + proc.stderr


def test_oracle_size_runs_the_oracle_pass():
    """No stored spans serve the oracle's SQuAD size, so its record above
    pins a real oracle pass."""
    bundle = create_reference_model(DATASET_CASES["squad"][0])
    key = squad.oracle_key(export_mobile(bundle.graph), bundle.config,
                           size=DATASET_CASES["squad"][1], seed=squad.SEED)
    assert store.load(squad.SPANS, squad.STORED_SET, key) is None


def test_stored_squad_spans_equal_oracle_pass(reference_check):
    """The stored spans of the default SQuAD set are what a fresh FP32 oracle
    pass extracts (``ci.sh`` checks them at 1 and 4 BLAS threads too)."""
    proc, verdicts = reference_check
    assert verdicts.get("squad_spans") == {squad.STORED_SET: "ok"}, proc.stdout + proc.stderr


def test_oracle_covers_every_dataset():
    assert set(json.loads(ORACLE.read_text())) == set(DATASET_CASES) == set(DATASET_REGISTRY)
