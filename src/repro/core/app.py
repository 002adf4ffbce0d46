"""Headless benchmark app (paper §4.3, Appendix A).

The command-line equivalent of the mobile app's "Go" button: runs the suite
in the prescribed order under the run rules and prints the transparent
results screen. Laptop submitters use exactly this path (the paper's
headless variant); smartphones differ only by having a GUI on top.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..backends.vendors import available_backends
from ..hardware.soc import SOC_CATALOG
from ..models.zoo import available_models, model_card
from .harness import BenchmarkHarness
from .results import format_report
from .rules import DEFAULT_RULES, QUICK_RULES
from .tasks import FULL_TASK_ORDER

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlperf-mobile",
        description="MLPerf Mobile inference benchmark (simulated reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the benchmark suite on one device")
    run.add_argument("--soc", required=True, choices=sorted(SOC_CATALOG))
    run.add_argument("--backend", default=None, choices=available_backends(),
                     help="default: the vendor's submission backend")
    run.add_argument("--version", default=None,
                     choices=["v0.7", "v1.0", "experimental"],
                     help="default: the round the SoC was submitted in")
    run.add_argument("--tasks", nargs="*", choices=FULL_TASK_ORDER, default=None)
    run.add_argument("--quick", action="store_true",
                     help="reduced run rules + small datasets (smoke testing)")
    run.add_argument("--ambient", type=float, default=22.0,
                     help="room temperature in degC (rules: 20-25)")
    run.add_argument("--no-offline", action="store_true")
    run.add_argument("--json", action="store_true", help="machine-readable output")

    lst = sub.add_parser("list", help="list devices, backends and models")
    lst.add_argument("what", choices=["socs", "backends", "models", "tasks"])

    sub.add_parser("report", help="regenerate the paper's evaluation "
                                  "section from live simulator runs")

    card = sub.add_parser("describe", help="print a model card")
    card.add_argument("model", choices=available_models())
    card.add_argument("--graph", action="store_true",
                      help="also print the full-size op-by-op summary")
    return parser


def _run(args) -> int:
    version = args.version or SOC_CATALOG[args.soc].benchmark_version
    if args.quick:
        rules = QUICK_RULES
        sizes = {"imagenet": 128, "coco": 48, "ade20k": 32, "squad": 48}
    else:
        rules = DEFAULT_RULES
        sizes = None
    harness = BenchmarkHarness(
        version=version, rules=rules, ambient_c=args.ambient, dataset_sizes=sizes
    )
    suite = harness.run_suite(
        args.soc,
        backend_name=args.backend,
        tasks=args.tasks,
        include_offline=not args.no_offline,
    )
    if args.json:
        print(json.dumps([r.to_summary() for r in suite.results], indent=2))
    else:
        print(format_report(suite))
    return 0 if suite.all_passed else 1


def _list(args) -> int:
    if args.what == "socs":
        for name, soc in sorted(SOC_CATALOG.items()):
            accs = "+".join(a.name for a in soc.accelerators)
            print(f"{name:22s} {soc.vendor:10s} {soc.form_factor:11s} "
                  f"{soc.benchmark_version}  [{accs}]")
    elif args.what == "backends":
        for b in available_backends():
            print(b)
    elif args.what == "models":
        for m in available_models():
            print(m)
    else:
        for t in FULL_TASK_ORDER:
            print(t)
    return 0


def _describe(args) -> int:
    print(json.dumps(model_card(args.model), indent=2, default=str))
    if args.graph:
        from ..graph import export_mobile, graph_summary
        from ..models.zoo import create_full_model

        print()
        print(graph_summary(export_mobile(create_full_model(args.model).graph)))
    return 0


def _report(args) -> int:
    from ..analysis import evaluation_report

    print(evaluation_report())
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _run(args)
    if args.command == "list":
        return _list(args)
    if args.command == "report":
        return _report(args)
    return _describe(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
