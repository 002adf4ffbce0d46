"""Submission bundles, the submission checker, and rolling submissions.

A submission packages unedited logs, model provenance checksums and the
system description (paper §6.2: "Submissions include all of the mobile
benchmark app's log files, unedited"). Its bundle holds::

    system.json       the system description
    provenance.json   round, LoadGen checksum, per-task model provenance
    summary.json      one row per task (``BenchmarkResult.to_summary``)
    results/<task>/{accuracy,performance,offline}_log.json

The checker enforces: results only count when the quality target is met
and the summary agrees with the logs beside it, the LoadGen was not
modified, deployment models descend from the frozen reference graphs, and
the SUT is a commercially available device. It reads the bundle as one
``{relative path: JSON payload}`` dict, built in memory by
``check_submission`` and read from disk by ``validate_package``. Rolling
submissions (App. E) are an append-only log keyed by (SoC, backend, version).
"""

from __future__ import annotations

import json
import pathlib
import re
from dataclasses import dataclass, field

from ..loadgen.logging import LoadGenLog
from ..loadgen.scenarios import loadgen_checksum
from ..loadgen.validation import validate_serialized
from ..staticcheck.verifier import attestation_problems
from .harness import BenchmarkHarness
from .results import SuiteResult

__all__ = [
    "SystemDescription", "Submission", "build_submission", "write_submission",
    "check_submission", "validate_package", "provenance_problems", "RollingSubmissionLog",
]

_METADATA = {"system.json": dict, "provenance.json": dict, "summary.json": list}
# each log kind and the (mode, scenario) its log must record
_LOG_KINDS = {
    "accuracy": ("accuracy", "single_stream"),
    "performance": ("performance", "single_stream"),
    "offline": ("performance", "offline"),
}
_LOG_PATH = re.compile(r"results/([^/]+)/([^/]+)_log\.json")


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


def _bundle(submission: Submission) -> dict:
    """The bundle's files as ``{relative path: JSON payload}``, exactly as a
    reader of the written files gets them back."""
    sysd = submission.system
    files = {
        "system.json": {
            "submitter": sysd.submitter,
            "soc": sysd.soc_name,
            "device": sysd.device_name,
            "form_factor": sysd.form_factor,
            "os": sysd.os_name,
            "commercially_available": sysd.commercially_available,
            "factory_reset": sysd.factory_reset,
        },
        "provenance.json": {
            "version": submission.version,
            "loadgen_checksum": submission.loadgen_checksum,
            "models": submission.model_provenance,
        },
        "summary.json": [r.to_summary() for r in submission.suite.results],
    }
    for r in submission.suite.results:
        for kind, log in zip(_LOG_KINDS, (r.accuracy_log, r.performance_log, r.offline_log)):
            if log is not None:
                files[f"results/{r.task}/{kind}_log.json"] = log.to_dict()
    return json.loads(json.dumps(files, default=str))


def write_submission(submission: Submission, directory: str | pathlib.Path) -> pathlib.Path:
    """Serialize a submission bundle; returns the bundle root."""
    root = pathlib.Path(directory)
    for name, payload in _bundle(submission).items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2))
    return root


def provenance_problems(entry: dict) -> list[str]:
    """The per-task model-provenance rules.

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
    stamp = entry.get("staticcheck")
    if stamp and not isinstance(stamp, dict):
        problems.append("deployed graph's staticcheck stamp is not a JSON object")
    else:
        problems += [f"deployed {p}" for p in attestation_problems(
            stamp, entry.get("deployed_checksum"))]
    quant = entry.get("quantization") or {}
    # a record that is no JSON object holds no valid count either
    samples = quant.get("calibration_samples") if isinstance(quant, dict) else quant
    if samples is not None and not (isinstance(samples, (int, float)) and samples <= 500):
        problems.append(
            f"PTQ used {samples!r} calibration samples; the rules approve a "
            f"~500-sample set (§5.1)"
        )
    return problems


def _summary_from_logs(metric: object, logs: dict) -> dict:
    """A summary row's numbers from its logs, by the harness's expressions
    and ``BenchmarkResult.to_summary``'s rounding."""
    acc, perf = (LoadGenLog.from_dict(logs[kind]) for kind in ("accuracy", "performance"))
    off = LoadGenLog.from_dict(logs["offline"]) if "offline" in logs else None
    fps = round(off.throughput_fps(), 2) if off is not None and off.offline_seconds > 0 else 0.0
    return {
        "quality": round(acc.accuracy.get(metric, 0.0), 3),
        "latency_p90_ms": round(perf.percentile_latency() * 1e3, 3),
        "offline_fps": fps,
    }


def _check(files: dict) -> list[str]:
    """Every submission-checker rule, over a bundle's ``{relative path: JSON
    payload}``. A payload of the wrong shape is a problem, never an
    exception, and the result does not depend on the order of ``files``."""
    problems: list[str] = []
    meta = {}
    for name, kind in _METADATA.items():
        if name not in files:
            problems.append(f"bundle has no {name}")
        elif isinstance(files[name], kind):
            meta[name] = files[name]
        else:
            problems.append(f"{name}: holds a {type(files[name]).__name__}, not a {kind.__name__}")
    system, prov, rows = map(meta.get, _METADATA)
    if system is not None:
        if system.get("commercially_available") is not True:
            problems.append("system.json: SUT must be commercially available before publication")
        if system.get("factory_reset") is not True:
            problems.append("system.json: verification requires a factory-reset device")

    models: dict = {}
    if prov is not None:
        if prov.get("loadgen_checksum") != loadgen_checksum():
            problems.append(
                "provenance.json: LoadGen checksum mismatch: submitter modified the LoadGen")
        if isinstance(prov.get("models"), dict):
            models = prov["models"]
        else:
            problems.append("provenance.json: models is not a JSON object")
        for task, entry in sorted(models.items()):
            found = (provenance_problems(entry) if isinstance(entry, dict)
                     else ["provenance entry is not a JSON object"])
            problems += [f"provenance.json: [{task}] {p}" for p in found]

    if rows == []:
        problems.append("summary.json: submission contains no results")
    for i, row in enumerate(rows or ()):
        task = row.get("task") if isinstance(row, dict) else None
        if not isinstance(task, str):
            problems.append(f"summary.json: row {i} names no task")
            continue
        prefix = f"summary.json: [{task}]"
        if row.get("error"):
            problems.append(f"{prefix} task degraded, no valid result: {row['error']}")
            continue
        logs = {kind: files[name] for kind in _LOG_KINDS
                if (name := f"results/{task}/{kind}_log.json") in files}
        if "accuracy" not in logs or "performance" not in logs:
            problems.append(f"{prefix} missing unedited log files")
            continue
        quality, target = row.get("quality"), row.get("quality_target")
        if row.get("quality_passed") is not True:
            problems.append(f"{prefix} quality {quality!r} below the minimum target "
                            f"{target!r}; performance results are invalid")
        elif not (isinstance(quality, (int, float)) and isinstance(target, (int, float))
                  and quality >= target):
            # rounding is monotone: a true pass never reads below its target
            problems.append(f"{prefix} passes with quality {quality!r} below target {target!r}")
        try:
            derived = _summary_from_logs(row.get("metric"), logs)
        except (TypeError, ValueError, ArithmeticError) as exc:
            problems.append(f"{prefix} summary cannot be recomputed from its logs ({exc})")
        else:
            problems += [f"{prefix} {key} is {row.get(key)!r}; its logs give {value!r}"
                         for key, value in derived.items() if row.get(key) != value]
        if task not in models:
            problems.append(f"{prefix} missing model provenance")

    log_names = [name for name in sorted(files) if _LOG_PATH.fullmatch(name)]
    if not log_names:
        problems.append("bundle has no results/<task>/*_log.json files")
    for name in log_names:
        problems += [f"{name}: {p}" for p in _placement_problems(name, files[name])]
        problems += [f"{name}: {v}" for v in validate_serialized(files[name])]
    return problems


def _placement_problems(name: str, payload: object) -> list[str]:
    """A log must be the log its path names: that task, and the mode and
    scenario of that kind, so no log can stand in for another."""
    task, kind = _LOG_PATH.fullmatch(name).groups()
    if kind not in _LOG_KINDS:
        return [f"unknown log kind {kind!r}; a bundle ships {', '.join(_LOG_KINDS)} logs"]
    if not isinstance(payload, dict):
        return []  # validate_serialized reports the payload's type
    mode, scenario = _LOG_KINDS[kind]
    return [
        f"records {key} {payload.get(key)!r}; its path holds the {kind} log of {task!r}"
        for key, want in (("task", task), ("mode", mode), ("scenario", scenario))
        if payload.get(key) != want
    ]


def check_submission(submission: Submission) -> list[str]:
    """The submission checker, applied to the bundle ``write_submission`` ships."""
    return _check(_bundle(submission))


def validate_package(directory: str | pathlib.Path) -> list[str]:
    """The submission checker, applied to every ``*.json`` under ``directory``.

    A file that cannot be read or parsed is a problem, never an exception:
    one bad file must not kill a checker sweep over a whole submission round.
    """
    root = pathlib.Path(directory)
    files, problems = {}, []
    for path in sorted(root.rglob("*.json")):
        name = path.relative_to(root).as_posix()
        try:
            files[name] = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            problems.append(f"{name}: unreadable ({exc})")
    return problems + _check(files)


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
