"""On-disk submission bundles.

Writes a submission the way the real process ships one: a directory holding
the system description, per-task unedited LoadGen log files, model
provenance checksums and a summary — everything the auditors receive
(paper §6.2: "Submissions include all of the mobile benchmark app's log
files, unedited").
"""

from __future__ import annotations

import json
import pathlib

from ..loadgen.logging import LoadGenLog
from ..loadgen.validation import validate_serialized
from .submission import Submission, provenance_problems

__all__ = [
    "write_submission",
    "load_submission_summary",
    "load_log",
    "validate_package",
]


def _write_json(path: pathlib.Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=str)


def write_submission(submission: Submission, directory: str | pathlib.Path) -> pathlib.Path:
    """Serialize a submission bundle; returns the bundle root."""
    root = pathlib.Path(directory)
    sysd = submission.system
    _write_json(root / "system.json", {
        "submitter": sysd.submitter,
        "soc": sysd.soc_name,
        "device": sysd.device_name,
        "form_factor": sysd.form_factor,
        "os": sysd.os_name,
        "commercially_available": sysd.commercially_available,
        "factory_reset": sysd.factory_reset,
    })
    _write_json(root / "provenance.json", {
        "version": submission.version,
        "loadgen_checksum": submission.loadgen_checksum,
        "models": submission.model_provenance,
    })
    summary = []
    for result in submission.suite.results:
        task_dir = root / "results" / result.task
        for log, name in (
            (result.accuracy_log, "accuracy_log.json"),
            (result.performance_log, "performance_log.json"),
            (result.offline_log, "offline_log.json"),
        ):
            if log is not None:
                _write_json(task_dir / name, log.to_dict())
        summary.append(result.to_summary())
    _write_json(root / "summary.json", summary)
    return root


def load_submission_summary(directory: str | pathlib.Path) -> list[dict]:
    with open(pathlib.Path(directory) / "summary.json") as fh:
        return json.load(fh)


def load_log(path: str | pathlib.Path) -> LoadGenLog:
    """Rehydrate an unedited log file back into a :class:`LoadGenLog`.

    Round-tripping is lossless (``from_dict`` inverts ``to_dict``): the
    audit revalidates logs from disk exactly as they were submitted.
    """
    with open(path) as fh:
        raw = json.load(fh)
    return LoadGenLog.from_dict(raw)


def validate_package(directory: str | pathlib.Path) -> list[str]:
    """Conformance-check an on-disk submission bundle.

    Walks every ``*_log.json`` under ``results/`` and runs the serialized
    validator over the raw JSON. Unreadable or corrupt files come back as
    violations, never exceptions — one bad file must not kill a checker
    sweep over a whole submission round.
    """
    root = pathlib.Path(directory)
    problems: list[str] = []
    for name in ("system.json", "provenance.json", "summary.json"):
        if not (root / name).exists():
            problems.append(f"package missing {name}")
    prov_path = root / "provenance.json"
    if prov_path.exists():
        try:
            prov = json.loads(prov_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            prov = None
            problems.append(f"provenance.json: unreadable ({exc})")
        if isinstance(prov, dict):
            for task, entry in sorted((prov.get("models") or {}).items()):
                if isinstance(entry, dict):
                    problems += [f"provenance.json: [{task}] {p}"
                                 for p in provenance_problems(entry)]
    results_dir = root / "results"
    if not results_dir.is_dir():
        problems.append("package has no results/ directory")
        return problems
    log_files = sorted(results_dir.glob("*/*_log.json"))
    if not log_files:
        problems.append("package contains no log files")
    for path in log_files:
        label = str(path.relative_to(root))
        try:
            raw = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            problems.append(f"{label}: unreadable log file ({exc})")
            continue
        problems += [f"{label}: {v}" for v in validate_serialized(raw)]
    return problems
