"""Thermal + power study (run rules §6.1 and the App. E power metric).

Sustains single-stream segmentation on the Exynos 990, sampling latency,
die temperature, power and clock over two virtual minutes; then shows the
mandated cooldown interval restoring cold-start behaviour, and closes with
the per-task energy table the paper lists as future work.

Usage:
    python examples/thermal_power_study.py
"""

from repro.analysis import ai_tax_breakdown, measure_single_stream
from repro.backends import default_backend_for
from repro.core.harness import full_graph
from repro.core.tasks import TASK_ORDER
from repro.hardware import SimulatedDevice, get_soc


def main() -> None:
    soc = get_soc("exynos_990")
    backend = default_backend_for(soc)
    graph = full_graph("deeplab_v3plus")
    compiled = backend.compile_single_stream(graph, "semantic_segmentation")
    device = SimulatedDevice(soc, ambient_c=22.0)

    print("sustained segmentation on exynos_990 (ambient 22 C)")
    print(f"{'t (s)':>7}{'latency ms':>12}{'die C':>8}{'clock':>7}{'avg W':>7}")
    next_report = 0.0
    while device.virtual_time < 120.0:
        result = device.run_query(compiled)
        if device.virtual_time >= next_report:
            print(f"{device.virtual_time:>7.1f}{result.latency_seconds*1e3:>12.2f}"
                  f"{result.temperature_c:>8.1f}{result.clock_scale:>7.2f}"
                  f"{result.energy.average_watts:>7.2f}")
            next_report += 15.0

    print("\ncooldown break (5 minutes, the app's maximum setting)...")
    device.cooldown(300.0)
    rested = device.run_query(compiled)
    print(f"after break: latency {rested.latency_seconds*1e3:.2f} ms, "
          f"die {rested.temperature_c:.1f} C — cold-start behaviour restored")

    print("\nper-task energy (single-stream, cold start), v0.7 smartphones")
    print(f"{'task':<26}" + "".join(
        f"{s:>22}" for s in ("exynos_990", "snapdragon_865plus", "dimensity_820")))
    for task in TASK_ORDER:
        cells = []
        for soc_name in ("exynos_990", "snapdragon_865plus", "dimensity_820"):
            r = measure_single_stream(soc_name, task)
            cells.append(f"{r['energy_per_query_mj']:>19.2f} mJ")
        print(f"{task:<26}" + "".join(cells))
    print("\nsmartphone chipsets cap near 3 W TDP (paper App. E), which is the")
    print("ceiling the offline scenario saturates.")

    print("\nend-to-end AI tax (App. E: user-perceived latency includes pre/post)")
    print(f"{'task':<26}{'core ms':>9}{'e2e ms':>9}{'tax %':>7}")
    for task in TASK_ORDER:
        r = ai_tax_breakdown("snapdragon_865plus", task)
        print(f"{task:<26}{r['core_ms']:>9.2f}{r['end_to_end_ms']:>9.2f}"
              f"{r['ai_tax_pct']:>7.1f}")
    print("the tax is largest exactly where inference is fastest (Buch et al.).")


if __name__ == "__main__":
    main()
