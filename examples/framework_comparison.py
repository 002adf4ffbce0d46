"""Framework comparison on fixed hardware (paper Fig. 5 code path 1, App. E).

Holds the device constant (Dimensity 1100) and swaps the runtime framework:
the FP32 TFLite-CPU reference, the generic NNAPI delegate, and MediaTek's
Neuron delegate — reproducing the paper's point that the software stack, not
just the silicon, determines mobile AI performance (§7.4, Table 3).

Usage:
    python examples/framework_comparison.py
"""

from repro.analysis import measure_single_stream
from repro.core.tasks import TASK_ORDER

BACKENDS = ["tflite", "nnapi", "neuron"]


def main() -> None:
    print("Dimensity 1100 — identical hardware, three software stacks")
    print(f"{'task':<26}" + "".join(f"{b:>14}" for b in BACKENDS) + f"{'nnapi->neuron':>15}")
    for task in TASK_ORDER:
        row = {}
        for backend in BACKENDS:
            r = measure_single_stream("dimensity_1100", task, backend_name=backend)
            row[backend] = r["latency_p90_ms"]
        gain = (row["nnapi"] / row["neuron"] - 1) * 100
        print(
            f"{task:<26}"
            + "".join(f"{row[b]:>12.2f}ms" for b in BACKENDS)
            + f"{gain:>14.1f}%"
        )
    print("\nthe FP32 CPU reference is the 'poorly optimized' baseline the")
    print("paper ships (§3.3); vendor delegates unlock the accelerators.")


if __name__ == "__main__":
    main()
