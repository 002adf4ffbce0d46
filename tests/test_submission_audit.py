"""Submission bundles, checker, rolling submissions, independent audit."""

import pytest

from repro.core import (
    QUICK_RULES,
    BenchmarkHarness,
    RollingSubmissionLog,
    SystemDescription,
    audit_submission,
    build_submission,
    check_submission,
)
from repro.core.export import validate_package, write_submission
from repro.staticcheck import RULESET_VERSION


@pytest.fixture(scope="module")
def harness():
    return BenchmarkHarness(
        version="v1.0", rules=QUICK_RULES,
        dataset_sizes={"imagenet": 64, "coco": 24, "ade20k": 16, "squad": 32},
    )


@pytest.fixture(scope="module")
def submission(harness):
    suite = harness.run_suite("dimensity_1100", tasks=["question_answering"],
                              include_offline=False)
    sysd = SystemDescription("mediatek", "dimensity_1100", "test phone",
                             "smartphone", "Android 11")
    return build_submission(harness, suite, sysd)


class TestChecker:
    def test_clean_submission_passes(self, submission):
        assert check_submission(submission) == []

    def test_non_commercial_rejected(self, harness, submission):
        bad = build_submission(
            harness, submission.suite,
            SystemDescription("x", "dimensity_1100", "proto", "smartphone",
                              "Android", commercially_available=False),
        )
        assert any("commercially available" in p for p in check_submission(bad))

    def test_tampered_loadgen_rejected(self, submission):
        import dataclasses

        bad = dataclasses.replace(
            submission, loadgen_checksum="0" * 64
        ) if dataclasses.is_dataclass(submission) else submission
        bad.loadgen_checksum = "0" * 64
        assert any("LoadGen" in p for p in check_submission(bad))
        bad.loadgen_checksum = submission.loadgen_checksum

    def test_failed_quality_invalidates_performance(self, harness, submission):
        result = submission.suite.results[0]
        original = result.quality_passed
        result.quality_passed = False
        try:
            assert any("below the" in p for p in check_submission(submission))
        finally:
            result.quality_passed = original

    def test_foreign_model_rejected(self, submission):
        prov = submission.model_provenance["question_answering"]
        original = prov["deployed_source_checksum"]
        prov["deployed_source_checksum"] = "f" * 64
        try:
            assert any("frozen" in p for p in check_submission(submission))
        finally:
            prov["deployed_source_checksum"] = original

    def test_missing_logs_rejected(self, submission):
        result = submission.suite.results[0]
        log = result.accuracy_log
        result.accuracy_log = None
        try:
            assert any("unedited log" in p for p in check_submission(submission))
        finally:
            result.accuracy_log = log

    def test_stale_ruleset_stamp_rejected(self, submission, tmp_path):
        """A stamp from the previous staticcheck ruleset is not trusted, by
        the in-memory checker or by the on-disk package validator."""
        stamp = submission.model_provenance["question_answering"]["staticcheck"]
        assert stamp["ruleset"] == RULESET_VERSION
        stamp["ruleset"] = RULESET_VERSION - 1
        try:
            assert any("ruleset" in p for p in check_submission(submission))
            root = write_submission(submission, tmp_path / "pkg")
            assert any("ruleset" in p for p in validate_package(root))
        finally:
            stamp["ruleset"] = RULESET_VERSION


class TestRollingSubmissions:
    def test_accepts_and_numbers(self, submission):
        log = RollingSubmissionLog()
        sid = log.submit(submission)
        assert sid == 1 and len(log) == 1
        assert log.latest("dimensity_1100").submission_id == 1

    def test_rejects_invalid(self, submission):
        log = RollingSubmissionLog()
        original = submission.loadgen_checksum
        submission.loadgen_checksum = "bad"
        try:
            with pytest.raises(ValueError):
                log.submit(submission)
        finally:
            submission.loadgen_checksum = original

    def test_leaderboard(self, submission):
        log = RollingSubmissionLog()
        log.submit(submission)
        board = log.leaderboard("question_answering", "v1.0")
        assert board[0][0] == "dimensity_1100"

    def test_latest_missing(self):
        with pytest.raises(KeyError):
            RollingSubmissionLog().latest("exynos_990")


class TestAudit:
    def test_reproduction_within_tolerance(self, harness, submission):
        report = audit_submission(submission, harness)
        assert report.passed, report.summary()
        # deterministic simulator: the reproduction is exact
        assert all(f.relative_error < 1e-9 for f in report.findings)

    def test_falsified_latency_rejected(self, harness, submission):
        result = submission.suite.results[0]
        original = result.latency_p90_ms
        result.latency_p90_ms = original * 0.5  # claims to be 2x faster
        try:
            report = audit_submission(submission, harness)
            assert not report.passed
            assert any(
                not f.within_tolerance and f.quantity == "latency_p90_ms"
                for f in report.findings
            )
        finally:
            result.latency_p90_ms = original

    def test_summary_readable(self, harness, submission):
        report = audit_submission(submission, harness)
        text = report.summary()
        assert "audit result" in text and "question_answering" in text
