"""Submission bundles, checker, rolling submissions, independent audit."""

import copy
import dataclasses
import inspect
import pkgutil

import pytest

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
from repro.loadgen import loadgen_checksum
from repro.loadgen.scenarios import CHECKSUM_MODULES
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


def _degrade(sub, harness):
    """Replace the suite with one whose task crashed in performance mode, the
    way tests/test_faults.py builds a degraded submission."""
    def crashing_run_performance(task, backend, device):
        raise RuntimeError("delegate crashed while compiling the model")

    harness.run_performance = crashing_run_performance
    try:
        suite = harness.run_suite("dimensity_1100", tasks=["question_answering"],
                                  include_offline=False)
    finally:
        del harness.run_performance
    degraded = build_submission(harness, suite, sub.system)
    sub.suite, sub.model_provenance = degraded.suite, degraded.model_provenance


def _qa(sub):
    return sub.model_provenance["question_answering"]


# case: (edit of a copy of the clean submission, text one problem contains)
REJECTIONS = {
    "non_commercial_sut": (lambda s, h: setattr(s, "system", dataclasses.replace(
        s.system, commercially_available=False)), "commercially available"),
    "no_factory_reset": (lambda s, h: setattr(s, "system", dataclasses.replace(
        s.system, factory_reset=False)), "factory-reset"),
    "tampered_loadgen_checksum": (lambda s, h: setattr(s, "loadgen_checksum", "0" * 64),
                                  "LoadGen checksum mismatch"),
    "failed_quality_gate": (lambda s, h: setattr(s.suite.results[0], "quality_passed", False),
                            "below the minimum target"),
    "deleted_performance_log": (lambda s, h: setattr(s.suite.results[0], "performance_log", None),
                                "missing unedited log files"),
    "emptied_provenance": (lambda s, h: s.model_provenance.clear(), "missing model provenance"),
    "halved_summary_p90": (lambda s, h: setattr(s.suite.results[0], "latency_p90_ms",
                                                s.suite.results[0].latency_p90_ms * 0.5),
                           "latency_p90_ms"),
    "foreign_model": (lambda s, h: _qa(s).update(deployed_source_checksum="f" * 64), "frozen"),
    "stale_ruleset": (lambda s, h: _qa(s)["staticcheck"].update(ruleset=RULESET_VERSION - 1),
                      "ruleset"),
    "degraded_task": (_degrade, "task degraded"),
}


class TestOneChecker:
    """check_submission and validate_package are one checker: the bundle a
    submission writes gets exactly the problems the submission gets."""

    def test_clean_submission_clean_both_ways(self, submission, tmp_path):
        assert check_submission(submission) == []
        assert validate_package(write_submission(submission, tmp_path)) == []

    @pytest.mark.parametrize("case", sorted(REJECTIONS))
    def test_rejection_in_memory_equals_on_disk(self, harness, submission, tmp_path, case):
        edit, expected = REJECTIONS[case]
        bad = copy.deepcopy(submission)
        edit(bad, harness)
        problems = check_submission(bad)
        assert any(expected in p for p in problems), problems
        assert validate_package(write_submission(bad, tmp_path)) == problems


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


def _edited_source(module_name):
    """``inspect.getsource`` as it reads after a one-line edit to one module."""
    getsource = inspect.getsource

    def patched(obj):
        source = getsource(obj)
        if getattr(obj, "__name__", None) == module_name:
            source += "\n# an edit\n"
        return source

    return patched


class TestLoadGenChecksum:
    """A run under an edited LoadGen module is rejected, in memory and on disk."""

    @pytest.mark.parametrize("module_name", CHECKSUM_MODULES)
    def test_edited_module_rejected(self, harness, submission, tmp_path, monkeypatch,
                                    module_name):
        clean = loadgen_checksum()
        with monkeypatch.context() as patch:
            patch.setattr(inspect, "getsource", _edited_source(module_name))
            edited = loadgen_checksum()
            # what a run and a bundle made under the edited LoadGen record
            bad = build_submission(harness, copy.deepcopy(submission.suite), submission.system)
        assert edited != clean and bad.loadgen_checksum == edited
        for log in (bad.suite.results[0].accuracy_log, bad.suite.results[0].performance_log):
            log.metadata["loadgen_checksum"] = edited
        problems = check_submission(bad)
        assert any("LoadGen checksum mismatch" in p for p in problems), problems
        assert sum("loadgen checksum mismatch" in p for p in problems) == 2
        assert validate_package(write_submission(bad, tmp_path)) == problems

    def test_hashes_every_module_but_the_sut_and_validation(self):
        import repro.loadgen as loadgen

        modules = {f"repro.loadgen.{m.name}" for m in pkgutil.iter_modules(loadgen.__path__)}
        assert set(CHECKSUM_MODULES) == {"repro.loadgen"} | modules - {
            "repro.loadgen.sut", "repro.loadgen.validation"}


class TestLogPlacement:
    """A log is the log its path names: its task, and its kind's mode and scenario."""

    def _both_ways(self, bad, tmp_path):
        problems = check_submission(bad)
        assert validate_package(write_submission(bad, tmp_path)) == problems
        return problems

    def test_relabelled_logs_rejected(self, submission, tmp_path):
        bad = copy.deepcopy(submission)
        result = bad.suite.results[0]
        for log in (result.accuracy_log, result.performance_log):
            log.task = "image_classification"
        problems = self._both_ways(bad, tmp_path)
        for kind in ("accuracy", "performance"):
            name = f"results/question_answering/{kind}_log.json"
            assert (f"{name}: records task 'image_classification'; its path holds the "
                    f"{kind} log of 'question_answering'") in problems, problems

    def test_wrong_scenario_rejected(self, submission, tmp_path):
        bad = copy.deepcopy(submission)
        bad.suite.results[0].accuracy_log.scenario = "offline"
        problems = self._both_ways(bad, tmp_path)
        assert ("results/question_answering/accuracy_log.json: records scenario 'offline'; "
                "its path holds the accuracy log of 'question_answering'") in problems

    def test_offline_relabelled_performance_log_rejected(self, submission, tmp_path):
        """A log that says offline but carries no burst is reported, not raised."""
        bad = copy.deepcopy(submission)
        bad.suite.results[0].performance_log.scenario = "offline"
        problems = self._both_ways(bad, tmp_path)
        assert ("results/question_answering/performance_log.json: records scenario "
                "'offline'; its path holds the performance log of 'question_answering'"
                ) in problems, problems
        assert ("results/question_answering/performance_log.json: offline log missing "
                "sample count or duration") in problems, problems

    def test_swapped_logs_rejected(self, submission, tmp_path):
        bad = copy.deepcopy(submission)
        result = bad.suite.results[0]
        result.accuracy_log, result.performance_log = (result.performance_log,
                                                       result.accuracy_log)
        problems = self._both_ways(bad, tmp_path)
        assert ("results/question_answering/accuracy_log.json: records mode 'performance'; "
                "its path holds the accuracy log of 'question_answering'") in problems
        assert ("results/question_answering/performance_log.json: records mode 'accuracy'; "
                "its path holds the performance log of 'question_answering'") in problems

    def test_unknown_log_kind_rejected(self, submission, tmp_path):
        root = write_submission(submission, tmp_path)
        path = root / "results" / "question_answering"
        (path / "warmup_log.json").write_text((path / "performance_log.json").read_text())
        problems = validate_package(root)
        assert any(p.startswith("results/question_answering/warmup_log.json: unknown log kind")
                   for p in problems), problems
