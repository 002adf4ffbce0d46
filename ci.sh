#!/usr/bin/env bash
# Tier-1 CI gate: self-lint, the test suite, the submission-workflow example,
# then the thread-independent references at 1 and 4 BLAS threads.
#
# tools/references.py is the one check of every checked-in reference file:
# golden digests, stored fits and SQuAD spans, the dataset and simulator
# oracles, and the staticcheck zoo report (clean, byte for byte). Tier-1 runs
# it once over every entry at the 2 BLAS threads the digests and fits pin,
# along with the conformance/fault suites the run rules rest on. The dataset
# oracle, the stored spans and the simulator oracle (pure Python floats) must
# not depend on the thread count; checking only them leaves it unpinned, so
# each reference runs once per thread count.
set -euo pipefail
cd "$(dirname "$0")"

export PYTHONPATH=src

# repo self-lint: mutable default args, bare except, interpolated
# percentiles on latency paths
python tools/selflint.py src tests tools

python -m pytest -x -q tests

# the submission lifecycle end to end: exits 1 if the clean bundle written to
# disk has problems or the falsified submission is accepted
python examples/submission_workflow.py

for threads in 1 4; do
    OPENBLAS_NUM_THREADS=$threads python tools/references.py --check dataset_oracle squad_spans simulator_oracle
done
