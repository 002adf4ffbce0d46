"""Quantization study: the rules-compliant model-optimization pipeline (§5.1).

Walks the full submitter workflow for the classification task:
frozen FP32 reference -> export -> PTQ calibration on the approved 500-ish
sample set -> INT8/UINT8/FP16 deployment models -> accuracy versus the
quality target, with cross-layer equalization as a data-free extra.

Usage:
    python examples/quantization_study.py
"""

import numpy as np

from repro.datasets import create_dataset
from repro.graph import Executor, export_mobile
from repro.kernels import Numerics
from repro.models import create_reference_model
from repro.quantization import calibrate, convert_fp16, equalize_cross_layer, quantize_graph


def top1(graph, dataset) -> float:
    ex = Executor(graph)
    correct = 0
    for start in range(0, len(dataset), 64):
        idx = np.arange(start, min(start + 64, len(dataset)))
        out = ex.run(dataset.input_batch(idx))
        correct += (next(iter(out.values())).argmax(-1) == dataset.truths[idx]).sum()
    return correct / len(dataset) * 100


def main() -> None:
    print("building the classification reference model (closed-form training)...")
    bundle = create_reference_model("mobilenet_edgetpu")
    frozen = export_mobile(bundle.graph)
    dataset = create_dataset("imagenet", frozen, bundle.config, size=384)

    fp32 = top1(frozen, dataset)
    target = 0.98 * fp32  # Table 1: classification keeps >= 98% of FP32
    print(f"FP32 reference Top-1: {fp32:.2f} (paper: 76.19) — INT8 target {target:.2f}\n")

    print(f"{'deployment model':<42}{'top1':>8}{'of fp32':>9}{'gate':>6}")
    fp16 = convert_fp16(frozen)
    acc = top1(fp16, dataset)
    print(f"{'FP16 (weights rounded to half)':<42}{acc:>8.2f}{acc/fp32*100:>8.1f}%"
          f"{'pass' if acc >= target else 'FAIL':>6}")

    # the shipped recipe: moving-average activation ranges, per-channel weights
    stats = calibrate(frozen, dataset.calibration_batches())
    for numerics in (Numerics.INT8, Numerics.UINT8):
        q = quantize_graph(frozen, stats, numerics)
        acc = top1(q, dataset)
        label = f"{numerics.value.upper()} PTQ"
        print(f"{label:<42}{acc:>8.2f}{acc/fp32*100:>8.1f}%"
              f"{'pass' if acc >= target else 'FAIL':>6}")

    # cross-layer equalization: a data-free, mathematically-equivalent
    # transform of the frozen weights ("approved approximations", §5.1)
    equalized = equalize_cross_layer(frozen)
    stats = calibrate(equalized, dataset.calibration_batches())
    q = quantize_graph(equalized, stats, Numerics.INT8)
    acc = top1(q, dataset)
    print(f"{'INT8 PTQ + cross-layer equalization':<42}{acc:>8.2f}"
          f"{acc/fp32*100:>8.1f}%{'pass' if acc >= target else 'FAIL':>6}")

    print("\nnote: calibration uses only the approved held-out set; retraining")
    print("is forbidden for submitters (paper §5.1).")


if __name__ == "__main__":
    main()
