"""Benchmark core: tasks, run rules, harness, results, submissions, audit."""

from .audit import AuditFinding, AuditReport, audit_submission
from .harness import BenchmarkHarness, ReferenceArtifacts
from .results import BenchmarkResult, SuiteResult, format_report
from .rules import DEFAULT_RULES, QUICK_RULES, RuleViolation, RunRules
from .submission import (
    RollingSubmissionLog,
    Submission,
    SystemDescription,
    build_submission,
    check_submission,
    validate_package,
    write_submission,
)
from .tasks import FULL_TASK_ORDER, TASK_ORDER, TASKS, TaskSpec, get_task, tasks_for_version

__all__ = [
    "TaskSpec",
    "TASKS",
    "TASK_ORDER",
    "FULL_TASK_ORDER",
    "get_task",
    "tasks_for_version",
    "RunRules",
    "RuleViolation",
    "DEFAULT_RULES",
    "QUICK_RULES",
    "BenchmarkHarness",
    "ReferenceArtifacts",
    "BenchmarkResult",
    "SuiteResult",
    "format_report",
    "SystemDescription",
    "Submission",
    "build_submission",
    "check_submission",
    "RollingSubmissionLog",
    "AuditFinding",
    "AuditReport",
    "audit_submission",
    "write_submission",
    "validate_package",
]
