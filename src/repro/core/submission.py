"""Submission bundles, the submission checker, and rolling submissions.

A submission packages unedited logs, model provenance checksums and the
system description (paper §6.2). The checker enforces: results only count
when the quality target is met, the LoadGen was not modified, deployment
models descend from the frozen reference graphs, and the SUT is a
commercially available device. Rolling submissions (App. E future work) are
an append-only log keyed by (SoC, backend, version).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..loadgen.scenarios import loadgen_checksum
from ..loadgen.validation import validate_serialized
from ..staticcheck.verifier import attestation_problems
from .harness import BenchmarkHarness
from .results import SuiteResult

__all__ = [
    "SystemDescription",
    "Submission",
    "build_submission",
    "check_submission",
    "provenance_problems",
    "RollingSubmissionLog",
]


@dataclass(frozen=True)
class SystemDescription:
    submitter: str
    soc_name: str
    device_name: str
    form_factor: str  # "smartphone" | "laptop"
    os_name: str
    commercially_available: bool = True
    factory_reset: bool = True


@dataclass
class Submission:
    system: SystemDescription
    version: str
    suite: SuiteResult
    model_provenance: dict[str, dict[str, str]] = field(default_factory=dict)
    loadgen_checksum: str = ""
    submission_id: int = 0


def build_submission(
    harness: BenchmarkHarness, suite: SuiteResult, system: SystemDescription
) -> Submission:
    """Collect provenance from the harness's reference artifacts."""
    from ..kernels.numerics import Numerics

    provenance: dict[str, dict[str, str]] = {}
    for result in suite.results:
        if result.error:
            # a degraded task ships no artifacts; the checker flags it
            continue
        art = harness.artifacts(result.task)
        deployed = harness.deployment_graph(result.task, Numerics(result.numerics))
        provenance[result.task] = {
            "reference_export_checksum": art.fp32_graph.metadata["export_checksum"],
            "reference_source_checksum": art.fp32_graph.metadata["source_checksum"],
            "deployed_source_checksum": str(
                deployed.metadata.get("source_checksum", "")
            ),
            "deployed_name": deployed.name,
            # PTQ governance (§5.1): only the approved calibration set,
            # typically ~500 samples, no retraining
            "quantization": dict(deployed.metadata.get("quantization", {})),
            # static-verification attestation stamped at export/quantization
            # time, plus the graph checksum as shipped — the checker compares
            # the two to prove the verified graph is the deployed graph
            "staticcheck": dict(deployed.metadata.get("staticcheck", {})),
            "deployed_checksum": deployed.checksum(),
        }
    return Submission(
        system=system,
        version=suite.version,
        suite=suite,
        model_provenance=provenance,
        loadgen_checksum=loadgen_checksum(),
    )


def provenance_problems(entry: dict) -> list[str]:
    """The per-task model-provenance rules, shared by the in-memory checker
    and the on-disk package validator.

    Keys a provenance entry lacks are not violations (packages predating the
    static verifier carry no stamp); a recorded value must satisfy its rule.
    The stamp is judged by :func:`~repro.staticcheck.attestation_problems`.
    """
    problems: list[str] = []
    deployed = entry.get("deployed_source_checksum", "")
    if deployed not in (
        entry.get("reference_source_checksum"), entry.get("reference_export_checksum"), ""
    ):
        problems.append(
            "deployed model does not descend from the frozen reference graph "
            "(source checksum mismatch)"
        )
    problems += [f"deployed {p}" for p in attestation_problems(
        entry.get("staticcheck"), entry.get("deployed_checksum"))]
    samples = (entry.get("quantization") or {}).get("calibration_samples")
    if samples is not None and samples > 500:
        problems.append(
            f"PTQ used {samples} calibration samples; the rules approve a "
            f"~500-sample set (§5.1)"
        )
    return problems


def check_submission(submission: Submission) -> list[str]:
    """The submission checker: every rule the auditors examine first."""
    problems: list[str] = []
    sysdesc = submission.system

    if not sysdesc.commercially_available:
        problems.append("SUT must be commercially available before publication")
    if not sysdesc.factory_reset:
        problems.append("verification requires a factory-reset device")
    if submission.loadgen_checksum != loadgen_checksum():
        problems.append("LoadGen checksum mismatch: submitter modified the LoadGen")

    if not submission.suite.results:
        problems.append("submission contains no results")

    for result in submission.suite.results:
        prefix = f"[{result.task}]"
        if result.error:
            problems.append(f"{prefix} task degraded, no valid result: {result.error}")
            continue
        if result.accuracy_log is None or result.performance_log is None:
            problems.append(f"{prefix} missing unedited log files")
            continue
        for log, label in ((result.accuracy_log, "accuracy"),
                           (result.performance_log, "performance"),
                           (result.offline_log, "offline")):
            if log is None:
                continue
            # validate the serialized form — exactly what a submission
            # package contains — so summary edits and schema corruption are
            # caught the same way the auditor would catch them
            for v in validate_serialized(log.to_dict()):
                problems.append(f"{prefix} {label} log: {v}")
        if not result.quality_passed:
            problems.append(
                f"{prefix} quality {result.measured_quality:.2f} below the "
                f"minimum target {result.quality_target:.2f}; performance "
                f"results are invalid"
            )
        prov = submission.model_provenance.get(result.task)
        if prov is None:
            problems.append(f"{prefix} missing model provenance")
        else:
            problems += [f"{prefix} {p}" for p in provenance_problems(prov)]
    return problems


class RollingSubmissionLog:
    """Append-only continuous-submission registry (App. E)."""

    def __init__(self) -> None:
        self._entries: list[Submission] = []

    def submit(self, submission: Submission) -> int:
        problems = check_submission(submission)
        if problems:
            raise ValueError("rejected submission: " + "; ".join(problems[:3]))
        submission.submission_id = len(self._entries) + 1
        self._entries.append(submission)
        return submission.submission_id

    def __len__(self) -> int:
        return len(self._entries)

    def latest(self, soc_name: str, version: str | None = None) -> Submission:
        for sub in reversed(self._entries):
            if sub.system.soc_name == soc_name and (
                version is None or sub.version == version
            ):
                return sub
        raise KeyError(f"no submission for {soc_name}")

    def leaderboard(self, task: str, version: str) -> list[tuple[str, float]]:
        """Best (lowest) p90 latency per SoC for one task and round."""
        best: dict[str, float] = {}
        for sub in self._entries:
            if sub.version != version:
                continue
            for r in sub.suite.results:
                if r.task == task:
                    cur = best.get(sub.system.soc_name)
                    if cur is None or r.latency_p90_ms < cur:
                        best[sub.system.soc_name] = r.latency_p90_ms
        return sorted(best.items(), key=lambda kv: kv[1])
