#!/usr/bin/env python3
"""The repository benchmark: cold app-run suites and a simulator sweep.

Run from the repository root:

    python3 perfbench/run.py --workload suite-neuron --seed 1 --seconds 10 --trace 0

``--workload all`` runs every workload, each in its own process.
``--trace 0`` runs the workload and prints every end-to-end metric of
``BENCHMARK.json``. ``--trace 1`` first runs the same command untraced in a
child process (for the tracing overhead), then runs the workload traced in
this process, prints every per-layer metric and writes
``perfbench/out/<workload>.trace.json`` (Chrome trace events) and
``perfbench/out/<workload>.layers.json``. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 1 when the outputs miss the golden digest or an operation
failed, and 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
# The golden digests hold at this BLAS thread count only: BLAS splits GEMMs
# by thread, which moves float results (DeepLab UINT8 mIoU reads 28.439 with
# 2 OpenBLAS threads and 28.428 with 1).
BLAS_THREADS = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CHILD_TIMEOUT_S = 150


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _command(args, workload: str, trace: int) -> list[str]:
    return [sys.executable, str(pathlib.Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
    }


def _digest_ok(workload: str, digest: str, golden: dict) -> bool:
    expected = golden["digests"].get(workload)
    ok = digest == expected and golden["blas_threads"] == BLAS_THREADS
    verdict = "matches golden" if ok else f"MISMATCH, golden {expected}"
    print(f"output digest {digest} ({verdict})")
    return ok


def _report_failures(result) -> None:
    for problem in result.violations[:20]:
        print(f"violation: {problem}")
    print(f"attempted {result.attempted} (tasks {result.tasks}, queries {result.queries}); "
          f"failed {result.failed} (degraded tasks {result.degraded}, dropped queries "
          f"{result.dropped}, validator violations {len(result.violations)}); "
          f"retries {result.retries}; failed_op_ratio {result.failed / result.attempted:.6g}")


def _result_line(correct: bool, result, metrics: dict) -> None:
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))


def _untraced(args, bench: dict, golden: dict) -> int:
    from perfbench.workloads import WORKLOADS

    result = WORKLOADS[args.workload](args.seed, args.seconds)
    values = {
        "setup_s": statistics.median(result.setup_s),
        "wall_s": result.wall_s,
        "run_items_per_s": statistics.median(result.run_rates),
        "check_records_per_s": statistics.median(result.check_rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {len(result.setup_s)} set-up(s)",
        "wall_s": result.wall_note,
        "run_items_per_s": f"{result.run_items} {result.items}; "
                           f"median of {len(result.run_rates)} value(s)",
        "check_records_per_s": "to_dict + validate_serialized; "
                               f"median of {len(result.check_rates)}",
        "peak_rss_mb": "process maximum RSS",
    }
    metrics = {}
    for m in bench["end_to_end"]:
        name = m["name"]
        metrics[name] = {"value": values[name], "unit": m["unit"]}
        print(f"{name:<22}{values[name]:>16.6g} {m['unit']:<10} {notes[name]}")
    _report_failures(result)
    ok = _digest_ok(args.workload, result.digest, golden) and result.failed == 0
    _result_line(ok, result, metrics)
    return 0 if ok else 1


def _traced(args, bench: dict, golden: dict, env: dict) -> int:
    from perfbench.layers import Instrument
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS

    child = subprocess.run(_command(args, args.workload, 0), capture_output=True,
                           text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    lines = child.stdout.strip().splitlines()
    try:
        untraced = json.loads(lines[-1])
        untraced_digest = next(
            line.split()[2] for line in lines if line.startswith("output digest ")
        )
    except (IndexError, ValueError, StopIteration):
        print(f"untraced run failed with code {child.returncode}:\n{child.stderr[-4000:]}",
              file=sys.stderr)
        return 1

    tracer = Tracer()
    with Instrument(tracer) as instrument:
        result = WORKLOADS[args.workload](args.seed, args.seconds, tracer, instrument)
    traced_wall = tracer.spans[0].duration
    self_times = tracer.self_times()
    attributed = sum(self_times.values())
    sums_ok = math.isclose(attributed, traced_wall, rel_tol=1e-9, abs_tol=1e-6)

    layers = instrument.per_layer(result.logs)
    untraced_wall = untraced["metrics"]["wall_s"]["value"]
    layers["trace.overhead_s"] = traced_wall - untraced_wall
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    kernel_ms = {k: v for k, v in layers.items() if k.startswith("kernels.") and k.endswith(".ms")}
    listed = sum(v for k, v in kernel_ms.items() if k in units)
    layers["kernels.listed_share_pct"] = (
        100.0 * listed / sum(kernel_ms.values()) if kernel_ms else 0.0
    )

    print(f"{'per-layer metric':<58}{'value':>16}  unit")
    for name in sorted(layers):
        mark = "" if name in units else "   (not in BENCHMARK.json)"
        print(f"{name:<58}{layers[name]:>16.6g}  {units.get(name, '')}{mark}")
    by_span: dict[str, float] = {}
    for (name, _), seconds in self_times.items():
        by_span[name] = by_span.get(name, 0.0) + seconds
    print(f"\n{'self time by span':<34}{'s':>12}{'share':>9}")
    for name, seconds in sorted(by_span.items(), key=lambda kv: -kv[1]):
        print(f"{name:<34}{seconds:>12.4f}{100 * seconds / traced_wall:>8.2f}%")
    print(f"self times sum to {attributed:.6f} s; traced wall_s {traced_wall:.6f} s "
          f"({'equal' if sums_ok else 'MISMATCH'}); untraced wall_s {untraced_wall:.6f} s; "
          f"tracing overhead {layers['trace.overhead_s']:+.6f} s")
    notes = {
        "kernels": "kernels.<op>.ms is ExecutionProfiler time and skips each plan's "
                   "first batch per input shape (the arena recording run, which the "
                   "profiler books at 0 s); .macs is Op.macs and .bytes is computed from "
                   "tensor and weight sizes, both over the same timed batches",
        "hardware.query_us": "nearest-rank percentiles over "
                             f"{int(layers.get('hardware.query_count', 0))} "
                             "PerformanceSUT.issue_query calls",
        "graph.plan_compile_s": "time in ExecutionPlan.for_graph for that model and "
                                "numerics: plan builds on cache misses, wherever they ran",
    }
    for text in notes.values():
        print(f"note: {text}")

    OUT.mkdir(exist_ok=True)
    meta = {"workload": args.workload, "seed": args.seed, "environment": env}
    tracer.write_chrome_trace(OUT / f"{args.workload}.trace.json", meta)
    with open(OUT / f"{args.workload}.layers.json", "w") as fh:
        json.dump(dict(meta, traced_wall_s=traced_wall, untraced_wall_s=untraced_wall,
                       self_seconds_sum=attributed, self_seconds_by_span=by_span,
                       metrics=layers, notes=notes), fh, indent=1, sort_keys=True)

    _report_failures(result)
    ok = _digest_ok(args.workload, result.digest, golden)
    same = result.digest == untraced_digest
    print(f"traced digest {'equals' if same else 'DIFFERS FROM'} the untraced digest")
    ok = ok and same and sums_ok and untraced["correct"] and result.failed == 0
    metrics = {
        name: {"value": layers.get(name, 0.0), "unit": unit} for name, unit in units.items()
    }
    _result_line(ok, result, metrics)
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse(argv)
    for var in THREAD_VARS:  # before NumPy loads its BLAS
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    # replace this script's directory, whose module names would shadow others
    sys.path[0:1] = [str(src), str(ROOT)]
    if not (src / "repro").is_dir():
        print(f"perfbench: the program is not under {src}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        # one process per workload, so that every workload starts cold
        return max(subprocess.run(_command(args, name, args.trace), cwd=ROOT).returncode
                   for name in WORKLOADS)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    env = environment()
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          + ", ".join(f"{k} {v}" for k, v in env.items()))
    if args.trace:
        return _traced(args, bench, golden, env)
    return _untraced(args, bench, golden)


if __name__ == "__main__":
    sys.exit(main())
