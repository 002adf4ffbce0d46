#!/usr/bin/env bash
# Tier-1 CI gate: static analysis first (fastest, and it proves graph/plan
# invariants before anything executes), then the conformance/fault suites
# (they guard the run-rule correctness the whole benchmark's credibility
# rests on), then the full test suite, then the executor smoke benchmark.
# The smoke benchmark re-asserts plan-vs-legacy bit-exactness on INT8
# MobileNetEdgeTPU and fails if the planned path loses its speedup.
set -euo pipefail
cd "$(dirname "$0")"

export PYTHONPATH=src

# repo self-lint: mutable default args, bare except, interpolated
# percentiles on latency paths
python tools/selflint.py src tests tools

# static verifier: the whole model zoo x {fp32, fp16, int8, uint8} must come
# back clean from all four analyzer families — no baseline file in CI
python -m repro.staticcheck --fail-level warning

# value-range engine: interval proofs over the same matrix. The known clip-
# risk/coverage findings are pinned in the checked-in baseline, so the gate
# trips only on *new* provable errors (e.g. a range-aware accumulator
# overflow). The full JSON report is kept as a build artifact next to the
# BENCH files.
python -m repro.staticcheck --ranges --baseline tools/ranges_baseline.json \
    --fail-level error --format json \
    > benchmarks/results/STATICCHECK_ranges.json

python -m pytest -x -q tests/test_conformance.py tests/test_faults.py

python -m pytest -x -q tests
python benchmarks/bench_executor.py --smoke
