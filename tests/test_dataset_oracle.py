"""Exactness oracle for the six synthetic datasets.

Builds each dataset at a small size from its task's default reference
model and compares, against ``tests/dataset_oracle.json``: the SHA-256 of
its validation feeds, of its calibration batches and of its ground truth,
its length, the metric of the FP32 graph's postprocessed outputs, and
(where ground truth is a valid prediction, which COCO's boxes are not) the
metric of the ground truth itself. Metrics compare bit for bit
(``float.hex``). The suite digests round quality to 3 decimals; this
oracle catches any change to a generated byte, a batch split, a label or
a metric. At its oracle size SQuAD is labelled by a real FP32 oracle pass;
the spans stored for the default size are checked against one here too.

Regenerate, only for a change meant to move dataset bytes or metrics:

    PYTHONPATH=src python tests/test_dataset_oracle.py > tests/dataset_oracle.json
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib

import numpy as np
import pytest

ORACLE = pathlib.Path(__file__).with_name("dataset_oracle.json")

# dataset -> (default reference model, oracle size, truths are predictions)
CASES = {
    "imagenet": ("mobilenet_edgetpu", 32, True),
    "coco": ("mobiledet_ssd", 16, False),
    "ade20k": ("deeplab_v3plus", 8, True),
    "squad": ("mobilebert", 24, True),
    "speech": ("mobile_streaming_asr", 8, True),
    "superres": ("mobile_edge_sr", 8, True),
}
BATCH = 8


def _update(h, value) -> None:
    """Feed ``value`` into ``h``: arrays by dtype, shape and raw bytes."""
    if isinstance(value, dict):
        for key in sorted(value):
            h.update(f"{key}:".encode())
            _update(h, value[key])
    elif isinstance(value, (list, tuple)):
        h.update(f"[{len(value)}".encode())
        for item in value:
            _update(h, item)
    elif dataclasses.is_dataclass(value):
        _update(h, dataclasses.astuple(value))
    else:
        arr = np.ascontiguousarray(value)
        h.update(f"{arr.dtype}{arr.shape}".encode())
        h.update(arr.tobytes())


def _sha256(value) -> str:
    h = hashlib.sha256()
    _update(h, value)
    return h.hexdigest()


def _hex(metrics: dict) -> dict[str, str]:
    return {k: float(v).hex() for k, v in sorted(metrics.items())}


def dataset_record(name: str) -> dict:
    """Digests, length and metrics of dataset ``name`` at its oracle size."""
    from repro.datasets import create_dataset
    from repro.graph import Executor, export_mobile
    from repro.models import create_reference_model

    model, size, truths_are_predictions = CASES[name]
    bundle = create_reference_model(model)
    fp32 = export_mobile(bundle.graph)
    ds = create_dataset(name, fp32, bundle.config, size=size)
    n = len(ds)
    ex = Executor(fp32)
    predictions = {}
    for start in range(0, n, BATCH):
        idx = np.arange(start, min(start + BATCH, n))
        out = ex.run(ds.input_batch(idx))
        for j, i in enumerate(idx):
            predictions[int(i)] = ds.postprocess({k: v[j] for k, v in out.items()}, int(i))
    truths = [ds.ground_truth(i) for i in range(n)]
    record = {
        "len": n,
        "feeds": _sha256(ds.input_batch(np.arange(n))),
        "calibration": _sha256(ds.calibration_batches()),
        "truths": _sha256(truths),
        "fp32": _hex(ds.evaluate(predictions)),
    }
    if truths_are_predictions:
        record["truths_scored"] = _hex(ds.evaluate(dict(enumerate(truths))))
    return record


@pytest.mark.parametrize("name", sorted(CASES))
def test_dataset_matches_oracle(name):
    expected = json.loads(ORACLE.read_text())[name]
    assert dataset_record(name) == expected


def test_oracle_size_runs_the_oracle_pass():
    """No stored spans serve the oracle's SQuAD size, so its record above
    pins a real oracle pass."""
    from repro.datasets import squad
    from repro.graph import export_mobile
    from repro.models import create_reference_model

    bundle = create_reference_model(CASES["squad"][0])
    key = squad.oracle_key(export_mobile(bundle.graph), bundle.config,
                           size=CASES["squad"][1], seed=squad.SEED)
    assert squad.load_spans(key) is None


def test_stored_squad_spans_equal_oracle_pass():
    """The stored spans of the default SQuAD set are what a fresh FP32 oracle
    pass extracts, at this process's BLAS thread count (``ci.sh`` runs this
    file at 1, 2 and 4)."""
    from repro.datasets import DEFAULT_SIZES, squad
    from repro.graph import export_mobile
    from repro.models import create_reference_model

    bundle = create_reference_model(CASES["squad"][0])
    fp32 = export_mobile(bundle.graph)
    size = DEFAULT_SIZES["squad"]
    stored = squad.load_spans(squad.oracle_key(fp32, bundle.config, size=size, seed=squad.SEED))
    ds = squad.SyntheticSQuAD.generate(fp32, bundle.config, size=size)
    assert stored is not None
    assert stored == squad.run_oracle(fp32, ds.feeds, ds.context_starts)


def test_oracle_covers_every_dataset():
    from repro.datasets import DATASET_REGISTRY

    assert set(json.loads(ORACLE.read_text())) == set(CASES) == set(DATASET_REGISTRY)


if __name__ == "__main__":
    print(json.dumps({name: dataset_record(name) for name in sorted(CASES)}, indent=1))
