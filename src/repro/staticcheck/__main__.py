"""CLI: sweep the model zoo (or selected models) through the static verifier.

Examples::

    python -m repro.staticcheck                       # full zoo, all numerics
    python -m repro.staticcheck mobilebert --numerics int8,uint8
    python -m repro.staticcheck --families dataflow,quantization
    python -m repro.staticcheck --format json > staticcheck.json

Exit status is 0 only when every swept deployment is clean (no finding of
any severity): the contract ``ci.sh`` gates on.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..models import available_models
from .findings import RULESET_VERSION
from .verifier import ALL_FAMILIES, ZOO_NUMERICS, sweep_zoo

_NUMERICS = {n.value: n for n in ZOO_NUMERICS}


def _csv(choices: dict | tuple, label: str):
    valid = tuple(choices)

    def parse(text: str):
        items = tuple(t.strip().lower() for t in text.split(",") if t.strip())
        bad = [t for t in items if t not in valid]
        if bad:
            raise argparse.ArgumentTypeError(
                f"unknown {label} {bad}; choose from {', '.join(valid)}")
        return items

    return parse


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.staticcheck",
        description="Statically verify model-zoo graphs: dataflow, "
                    "quantization soundness, backend placement, plan liveness.",
    )
    parser.add_argument("models", nargs="*", metavar="MODEL",
                        help="zoo models to sweep (default: all)")
    parser.add_argument("--numerics", type=_csv(_NUMERICS, "numerics"),
                        default=tuple(_NUMERICS),
                        help="comma-separated formats (default: %(default)s)")
    parser.add_argument("--families", type=_csv(ALL_FAMILIES, "family"),
                        default=ALL_FAMILIES,
                        help="analyzer families to run (default: dataflow, "
                             "quantization, placement, plan)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    args = parser.parse_args(argv)

    known = available_models()
    unknown = [m for m in args.models if m not in known]
    if unknown:
        parser.error(f"unknown model(s) {unknown}; available: {', '.join(known)}")

    families = tuple(args.families)
    reports = sweep_zoo(
        tuple(args.models) or None,
        tuple(_NUMERICS[n] for n in args.numerics),
        families=families,
    )
    total = sum(len(r.findings) for r in reports)

    if args.format == "json":
        json.dump({
            "ruleset": RULESET_VERSION,
            "families": list(families),
            "reports": [r.to_dict() for r in reports],
            "total_findings": total,
            "exit_code": 1 if total else 0,
        }, sys.stdout, indent=2)
        print()
    else:
        for report in reports:
            print(report.render_text())
        verdict = "CLEAN" if not total else f"{total} finding(s)"
        print(f"\n{len(reports)} deployment(s) checked "
              f"[{', '.join(families)}]: {verdict}")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
