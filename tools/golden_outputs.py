#!/usr/bin/env python
"""Golden output digests: the executor's exactness oracle.

Builds every zoo reference model (unfitted), exports it, and runs it in
FP32, FP16, INT8 and UINT8 on fixed seeded batch-4 feeds. Each
(model, numerics) pair is reduced to one SHA-256 digest over its outputs
(sorted by name; each output contributes name, dtype, shape and raw bytes).

    PYTHONPATH=src python tools/golden_outputs.py --check   # exit 1 on drift
    PYTHONPATH=src python tools/golden_outputs.py --write   # regenerate

``--check`` prints one ``ok``/``MISMATCH``/``MISSING`` line per pair.
``--write`` rewrites ``tests/golden_outputs.json``; only do that for a change
that is meant to alter outputs, and say why in the commit.

BLAS is pinned to 2 threads before NumPy loads: a float GEMM's summation
order depends on the thread split, so DeepLab's FP32/FP16 outputs (and its
INT8/UINT8 ones, through FP32 calibration) change at 1 thread.
"""

from __future__ import annotations

import os

BLAS_THREADS = 2
if __name__ == "__main__":  # before NumPy loads its BLAS; importers keep theirs
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden_outputs.json"
NUMERICS = ("fp32", "fp16", "int8", "uint8")
BATCH = 4


def digest(outputs: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name in sorted(outputs):
        arr = np.ascontiguousarray(outputs[name])
        h.update(name.encode())
        h.update(str(arr.dtype).encode())
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def compute() -> dict[str, dict[str, str]]:
    """Digest of every zoo model x numerics pair."""
    from repro.graph import Executor, export_mobile
    from repro.kernels import Numerics
    from repro.models import available_models, create_reference_model, model_feeds
    from repro.quantization import calibrate, convert_fp16, quantize_graph

    digests: dict[str, dict[str, str]] = {}
    for name in available_models():
        exported = export_mobile(create_reference_model(name, fitted=False).graph)
        feeds = model_feeds(name, exported, BATCH)
        stats = calibrate(exported, [feeds])
        deployments = {
            "fp32": exported,
            "fp16": convert_fp16(exported),
            "int8": quantize_graph(exported, stats, Numerics.INT8),
            "uint8": quantize_graph(exported, stats, Numerics.UINT8),
        }
        digests[name] = {
            numerics: digest(Executor(deployments[numerics]).run(feeds))
            for numerics in NUMERICS
        }
    return digests


def check(golden: dict, digests: dict[str, dict[str, str]]) -> list[str]:
    """One ``<verdict> <model>/<numerics>`` line per pair, golden or computed."""
    expected = golden["digests"]
    lines = []
    for model in sorted(set(expected) | set(digests)):
        for numerics in NUMERICS:
            want = expected.get(model, {}).get(numerics)
            got = digests.get(model, {}).get(numerics)
            if want is None or got is None:
                verdict = "MISSING"
            else:
                verdict = "ok" if want == got else "MISMATCH"
            lines.append(f"{verdict} {model}/{numerics}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare with the golden file")
    mode.add_argument("--write", action="store_true", help="rewrite the golden file")
    args = parser.parse_args(argv)

    digests = compute()
    if args.write:
        payload = {"blas_threads": BLAS_THREADS, "batch": BATCH, "digests": digests}
        GOLDEN.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(digests)} models x {len(NUMERICS)} numerics to {GOLDEN}")
        return 0

    golden = json.loads(GOLDEN.read_text())
    if golden["blas_threads"] != BLAS_THREADS:
        print(f"golden file recorded at {golden['blas_threads']} BLAS threads, "
              f"this run uses {BLAS_THREADS}")
        return 1
    lines = check(golden, digests)
    print("\n".join(lines))
    return 0 if all(line.startswith("ok ") for line in lines) else 1


if __name__ == "__main__":
    sys.exit(main())
