#!/usr/bin/env bash
# Tier-1 CI gate: static analysis first (fastest, and it proves graph/plan
# invariants before anything executes; one zoo sweep both gates and must
# reproduce benchmarks/results/STATICCHECK.json), then the full test suite,
# which runs every other check once:
#   - the conformance/fault suites (tests/test_conformance.py,
#     tests/test_faults.py) that guard the run-rule correctness the whole
#     benchmark's credibility rests on;
#   - the refit check of the stored reference-model fits and SQuAD oracle
#     spans (tools/fitted_models.py --check, in tests/test_fitted_models.py):
#     every zoo model refit at 2 BLAS threads must match its stored fit byte
#     for byte, and a fresh oracle pass the stored spans. Their keys cannot
#     see a kernel, synthdata or preprocess edit that changes stored bytes;
#     this check does;
#   - the golden output digest check (tools/golden_outputs.py --check, in
#     tests/test_plan.py): every zoo model in FP32/FP16/INT8/UINT8 must
#     reproduce its checked-in output digest.
# Last, the dataset oracle (tests/test_dataset_oracle.py) runs again at 1 and
# at 4 OpenBLAS threads. Its bytes and metrics are documented as independent
# of the BLAS thread count; running it at three counts keeps synthesis,
# preprocessing and metric code from picking up a thread dependence. It runs
# a real SQuAD oracle pass at its own size and checks the stored spans of the
# default size against a fresh pass, so both hold at all three counts.
set -euo pipefail
cd "$(dirname "$0")"

export PYTHONPATH=src

# repo self-lint: mutable default args, bare except, interpolated
# percentiles on latency paths
python tools/selflint.py src tests tools

# static verifier: the whole model zoo x {fp32, fp16, int8, uint8} must come
# back clean from all four analyzer families (any finding exits 1). The JSON
# report, with each plan's describe(), is checked in next to the BENCH files
# and must match byte for byte (it does not depend on the BLAS thread count).
report=$(mktemp)
trap 'rm -f "$report"' EXIT
python -m repro.staticcheck --format json > "$report"
if ! cmp -s "$report" benchmarks/results/STATICCHECK.json; then
    diff "$report" benchmarks/results/STATICCHECK.json | head -20 >&2 || true
    echo "ci.sh: the staticcheck report differs from benchmarks/results/STATICCHECK.json." \
         "If the change is meant, regenerate it with" \
         "'PYTHONPATH=src python -m repro.staticcheck --format json > benchmarks/results/STATICCHECK.json'." >&2
    exit 1
fi

python -m pytest -x -q tests

for threads in 1 4; do
    OPENBLAS_NUM_THREADS=$threads python -m pytest -x -q tests/test_dataset_oracle.py
done
