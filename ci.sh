#!/usr/bin/env bash
# Tier-1 CI gate: static analysis first (fastest, and it proves graph/plan
# invariants before anything executes), then the refit check of the stored
# reference-model fits (tools/fitted_models.py --check), then the
# conformance/fault suites (they guard the run-rule correctness the whole
# benchmark's credibility rests on), then the full test suite. The test
# suite includes the golden output digest check (tools/golden_outputs.py
# --check): every zoo model in FP32/FP16/INT8/UINT8 must reproduce its
# checked-in output digest.
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

# stored reference-model fits: refit every zoo model (BLAS pinned to 2
# threads) and require each stored fit to match byte for byte. The fit key
# cannot see a kernel, synthdata or preprocess edit that changes fitted bytes;
# this gate does.
python tools/fitted_models.py --check

python -m pytest -x -q tests/test_conformance.py tests/test_faults.py

python -m pytest -x -q tests
