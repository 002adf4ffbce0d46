"""The full submission lifecycle (paper §6.2 and App. E rolling submissions).

Plays both sides of the process:
1. a vendor runs the suite and packages a submission (unedited logs, model
   provenance checksums, system description);
2. the submission checker enforces the rules, in memory and on the bundle
   written to disk;
3. the independent auditor rebuilds, reruns on a factory-reset device, and
   accepts only if the reproduced scores land within 5%;
4. the accepted result enters the rolling-submission log;
5. a falsified variant is rejected by the checker and at audit.

Exits 1 if the clean bundle has problems or the falsified one is accepted.

Usage:
    python examples/submission_workflow.py
"""

import sys
import tempfile

from repro.core import (
    QUICK_RULES,
    BenchmarkHarness,
    RollingSubmissionLog,
    SystemDescription,
    audit_submission,
    build_submission,
    check_submission,
    validate_package,
    write_submission,
)


def check_on_disk(submission) -> list[str]:
    """Write the submission's bundle to a temporary directory and check it there."""
    with tempfile.TemporaryDirectory(prefix="submission_") as tmp:
        return validate_package(write_submission(submission, tmp))


def main() -> int:
    harness = BenchmarkHarness(
        version="v1.0",
        rules=QUICK_RULES,
        dataset_sizes={"imagenet": 128, "coco": 48, "ade20k": 32, "squad": 64},
    )

    print("1) vendor runs the benchmark suite...")
    suite = harness.run_suite(
        "exynos_2100", tasks=["question_answering"],
        include_offline=False,
    )
    system = SystemDescription(
        submitter="samsung", soc_name="exynos_2100", device_name="Galaxy S21",
        form_factor="smartphone", os_name="Android 11",
    )
    submission = build_submission(harness, suite, system)
    print(f"   packaged {len(suite.results)} results with provenance checksums")

    print("2) submission checker, in memory and on the written bundle...")
    problems = check_submission(submission)
    print("   in memory: " + ("clean" if not problems else "; ".join(problems)))
    disk_problems = check_on_disk(submission)
    print("   on disk:   " + ("clean" if not disk_problems else "; ".join(disk_problems)))

    print("3) independent audit (rebuild + rerun on factory-reset device)...")
    report = audit_submission(submission, harness)
    print("   " + report.summary().replace("\n", "\n   "))

    print("4) rolling submission log...")
    rolling = RollingSubmissionLog()
    sid = rolling.submit(submission)
    board = rolling.leaderboard("question_answering", "v1.0")
    print(f"   accepted as submission #{sid}; QA leaderboard: {board}")

    print("5) a falsified submission (latency halved) ...")
    result = submission.suite.results[0]
    result.latency_p90_ms *= 0.5
    bad_problems = check_on_disk(submission)
    bad_report = audit_submission(submission, harness)
    result.latency_p90_ms *= 2.0  # restore
    print("   on-disk checker: " + ("; ".join(bad_problems) or "accepted"))
    print(f"   audit verdict: {'accepted' if bad_report.passed else 'REJECTED'}")

    failures = []
    if disk_problems:
        failures.append("the clean bundle has problems")
    if not bad_problems or bad_report.passed:
        failures.append("the falsified submission was accepted")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
