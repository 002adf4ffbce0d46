#!/usr/bin/env python
"""Stored reference-model fits and SQuAD oracle spans: write them, or check
them against a recomputation.

Fitting a reference model's heads (``repro.models.fitting``) is deterministic
but slow, so each zoo model whose fit changes any param ships that fit in
``src/repro/models/fitted/<model>.npz``: the changed params (BN statistics and
head weights), ``metadata["head_fit"]`` and the fit key. A default build
loads it when the key matches exactly and refits otherwise. The FP32
MobileBERT oracle's answer spans of the default SQuAD set ship the same way,
in ``fitted/squad_oracle.json`` under their key (``repro.datasets.squad``).

    PYTHONPATH=src python tools/fitted_models.py --check   # exit 1 on drift
    PYTHONPATH=src python tools/fitted_models.py --write   # regenerate

``--check`` refits every model at the default seed and prints one
``ok``/``MISMATCH``/``MISSING``/``STALE`` line per model; any byte difference
is a mismatch. It then reruns the SQuAD oracle pass and prints one
``ok``/``MISMATCH``/``MISSING`` line for the spans. The keys cover the recipe
versions, seeds, unfitted or oracle graph and config, but not the kernels,
scene or token synthesis or preprocessing a fit or the oracle runs through:
this check is what catches an edit there that changes stored bytes.
``--write`` rewrites the files (byte-reproducibly); do that in its own commit
and give the reason in the commit message.

BLAS is pinned to 2 threads before NumPy loads: a float GEMM's summation
order depends on the thread split, and DeepLab's build and fit change at 1
thread (its key then misses, so a 1-thread build refits).
"""

from __future__ import annotations

import os

BLAS_THREADS = 2
if __name__ == "__main__":  # before NumPy loads its BLAS; importers keep theirs
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402
import zipfile  # noqa: E402

import numpy as np  # noqa: E402


def same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def refit(name: str) -> dict[str, np.ndarray]:
    """Entries of model ``name``'s stored fit, computed afresh; empty when
    fitting changes no param (MobileBERT: QA is evaluated oracle-relative)."""
    from repro.models import create_reference_model, fitting

    bundle = create_reference_model(name, fitted=False)
    key = fitting.fit_key(bundle, fitting.FIT_SEED)
    before = dict(bundle.graph.params)
    fitting.fit_reference_heads(bundle, seed=fitting.FIT_SEED)
    changed = {param: np.ascontiguousarray(arr) for param, arr in bundle.graph.params.items()
               if not same(arr, before[param])}
    if not changed:
        return {}
    head_fit = json.dumps(bundle.graph.metadata["head_fit"], sort_keys=True)
    return {fitting.KEY_ENTRY: np.array(key), fitting.HEAD_FIT_ENTRY: np.array(head_fit),
            **changed}


def squad_spans() -> dict:
    """The stored-spans record of the default SQuAD set, computed afresh by
    the oracle pass over the harness's FP32 reference graph."""
    from repro.datasets import DEFAULT_SIZES, squad
    from repro.graph import export_mobile
    from repro.models import create_reference_model

    bundle = create_reference_model("mobilebert")
    graph = export_mobile(bundle.graph)
    size = DEFAULT_SIZES["squad"]
    dataset = squad.SyntheticSQuAD.generate(graph, bundle.config, size=size, seed=squad.SEED)
    spans = squad.run_oracle(graph, dataset.feeds, dataset.context_starts)
    return {"key": squad.oracle_key(graph, bundle.config, size=size, seed=squad.SEED),
            "spans": [list(span) for span in spans]}


def check_spans(path: pathlib.Path, record: dict) -> str:
    """The ``--check`` line of the stored SQuAD oracle spans."""
    if not path.exists():
        return "MISSING squad_oracle"
    stored = json.loads(path.read_text())
    if stored["key"] != record["key"]:
        return "MISMATCH squad_oracle: key"
    moved = sum(a != b for a, b in zip(stored["spans"], record["spans"]))
    moved += abs(len(stored["spans"]) - len(record["spans"]))
    if moved:
        return f"MISMATCH squad_oracle: {moved} of {len(record['spans'])} spans differ"
    return "ok squad_oracle"


def write_npz(path: pathlib.Path, entries: dict[str, np.ndarray]) -> None:
    """``np.savez`` with fixed zip timestamps, so equal entries give equal bytes."""
    with zipfile.ZipFile(path, "w") as zf:
        for entry in sorted(entries):
            with zf.open(zipfile.ZipInfo(entry + ".npy"), "w") as f:  # dated 1980-01-01
                np.lib.format.write_array(f, entries[entry], allow_pickle=False)


def differing(path: pathlib.Path, entries: dict[str, np.ndarray]) -> list[str]:
    """Entries whose name, dtype, shape or bytes differ from the stored file."""
    with np.load(path, allow_pickle=False) as stored:
        names = sorted(set(stored.files) | set(entries))
        return [name for name in names if name not in stored.files
                or name not in entries or not same(stored[name], entries[name])]


def main(argv: list[str] | None = None) -> int:
    from repro.datasets import squad
    from repro.models import available_models, fitting

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare with a refit")
    mode.add_argument("--write", action="store_true", help="rewrite the stored fits")
    args = parser.parse_args(argv)

    fitted = {name: refit(name) for name in available_models()}
    fitted = {name: entries for name, entries in fitted.items() if entries}
    stored = {path.stem: path for path in fitting.FITTED_DIR.glob("*.npz")}
    spans = squad_spans()

    if args.write:
        fitting.FITTED_DIR.mkdir(exist_ok=True)
        for name, entries in fitted.items():
            write_npz(fitting.FITTED_DIR / f"{name}.npz", entries)
        for name in sorted(set(stored) - set(fitted)):
            stored[name].unlink()
        squad.STORED_SPANS.write_text(json.dumps(spans) + "\n")
        print(f"wrote {len(fitted)} fitted models and the SQuAD oracle spans "
              f"to {fitting.FITTED_DIR}")
        return 0

    ok = True
    for name in sorted(set(stored) | set(fitted)):
        if name not in stored:
            line = f"MISSING {name}"
        elif name not in fitted:
            line = f"STALE {name}: no zoo model whose fit changes a param"
        else:
            diff = differing(stored[name], fitted[name])
            line = f"MISMATCH {name}: {', '.join(diff)}" if diff else f"ok {name}"
        ok = ok and line.startswith("ok ")
        print(line)
    line = check_spans(squad.STORED_SPANS, spans)
    ok = ok and line.startswith("ok ")
    print(line)
    if not ok:
        print("a recomputation differs from the stored fits or spans: if the change "
              "is meant to alter them, run tools/fitted_models.py --write in its own "
              "commit and give the reason in the commit message")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
