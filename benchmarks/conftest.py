"""Shared fixtures for the reproduction benchmarks.

Every benchmark regenerates one of the paper's tables or figures, prints the
paper-style rows (run with ``-s`` to see them), asserts the shape claims from
DESIGN.md §3, and writes a JSON artifact under ``benchmarks/results/``.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.core import QUICK_RULES, BenchmarkHarness

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def save_result(name: str, payload) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / f"{name}.json", "w") as fh:
        json.dump(payload, fh, indent=2, default=str)


@pytest.fixture(scope="session")
def accuracy_harness():
    """Harness with full-size synthetic validation sets (Table 1 gates)."""
    return BenchmarkHarness(version="v1.0", rules=QUICK_RULES)


@pytest.fixture(scope="session")
def accuracy_harness_v07():
    return BenchmarkHarness(version="v0.7", rules=QUICK_RULES)
