"""Post-run conformance validation (paper §4.1: "enable post-run validation").

Two entry points:

* :func:`validate_log` runs the run-rule checks over an in-memory
  :class:`LoadGenLog` and returns a list of violations; an empty list means
  the run is rules-compliant. Every record is examined (not a prefix), and
  violations are reported at the first offending record so repeated runs
  produce identical output.

* :func:`validate_serialized` is what the submission checker and the audit
  actually call: it takes the raw *deserialized JSON payload* of a log file,
  checks the schema, rebuilds the log, runs :func:`validate_log`, and then
  recomputes the summary statistics from the raw records to catch edited
  logs whose claimed numbers no longer match their own data. It never
  raises on malformed input — corruption comes back as violations.
"""

from __future__ import annotations

import math

from .logging import LOG_SCHEMA_VERSION, LoadGenLog
from .scenarios import loadgen_checksum

__all__ = ["validate_log", "validate_serialized"]

_SCENARIOS = {"single_stream", "offline"}
_MODES = {"performance", "accuracy"}

# Claimed-vs-recomputed summary fields tolerate only float formatting noise;
# anything past this is an edit, not rounding.
_SUMMARY_RTOL = 1e-9


def _finite(x: float) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def validate_log(log: LoadGenLog) -> list[str]:
    problems: list[str] = []

    if log.metadata.get("loadgen_checksum") != loadgen_checksum():
        problems.append("loadgen checksum mismatch: the LoadGen was modified")
    if log.scenario not in _SCENARIOS:
        problems.append(f"unknown scenario {log.scenario!r}")
    if log.mode not in _MODES:
        problems.append(f"unknown mode {log.mode!r}")

    # faults surfaced by the harness are reported, never silently accepted
    dropped = log.metadata.get("dropped_queries", 0)
    if dropped:
        problems.append(
            f"degraded run: {dropped} queries dropped after exhausting the retry budget"
        )
    if log.metadata.get("partial"):
        problems.append(
            f"partial run: aborted early ({log.metadata.get('partial_reason', 'unknown reason')})"
        )

    # every record must be physically plausible, wherever it sits in the log
    for i, r in enumerate(log.records):
        if not (_finite(r.issue_time) and _finite(r.latency_seconds)):
            problems.append(f"record {i} contains non-finite timing values")
            break
    if log.mode == "performance":
        for i, r in enumerate(log.records):
            if not _finite(r.latency_seconds) or r.latency_seconds <= 0:
                problems.append(f"non-positive latency recorded at record {i}")
                break

    if log.mode == "performance" and log.scenario == "single_stream":
        if log.query_count < log.min_query_count:
            problems.append(
                f"only {log.query_count} queries; rules require >= {log.min_query_count}"
            )
        if log.total_duration_s < log.min_duration_s:
            problems.append(
                f"run lasted {log.total_duration_s:.1f}s; rules require >= "
                f"{log.min_duration_s:.0f}s"
            )
        # single-stream issues exactly one sample per query — all records
        for i, r in enumerate(log.records):
            if len(r.sample_indices) != 1:
                problems.append(
                    f"single-stream query {i} carried {len(r.sample_indices)} samples"
                )
                break
        # timestamps must be strictly increasing with no overlap (the next
        # query is only issued after the previous one completes)
        prev_end = -1.0
        for i, r in enumerate(log.records):
            if r.issue_time < prev_end - 1e-9:
                problems.append(f"overlapping queries in single-stream log at record {i}")
                break
            prev_end = r.issue_time + r.latency_seconds

    if log.mode == "performance" and log.scenario == "offline":
        if log.offline_samples <= 0 or log.offline_seconds <= 0:
            problems.append("offline log missing sample count or duration")
        elif not (_finite(log.offline_seconds) and _finite(log.energy_joules)):
            problems.append("offline log contains non-finite totals")
        expected = log.metadata.get("offline_expected_samples")
        if expected is not None and not _finite(expected):
            problems.append(f"offline_expected_samples {expected!r} is not a number")
        elif expected is not None and log.offline_samples < expected:
            problems.append(
                f"offline burst covered {log.offline_samples} samples; rules "
                f"require the full {expected}-sample burst"
            )
        clock_scale = log.metadata.get("steady_clock_scale")
        if clock_scale is not None and not (_finite(clock_scale) and 0.0 < clock_scale <= 1.0):
            problems.append(
                f"offline steady clock scale {clock_scale!r} outside (0, 1]"
            )
        if log.records:
            problems.append(
                "offline run must be a single burst, but per-query records are present"
            )

    if log.mode == "accuracy":
        if not log.accuracy:
            problems.append("accuracy run produced no metric")
        for name, value in log.accuracy.items():
            if not _finite(value):
                problems.append(f"accuracy metric {name!r} is non-finite")
        if not log.records:
            problems.append("accuracy run issued no queries")
        # the whole validation set, each sample exactly once (§4.1)
        seen: set[int] = set()
        for i, r in enumerate(log.records):
            dup = [s for s in r.sample_indices if s in seen]
            if dup:
                problems.append(
                    f"accuracy run repeated sample index {dup[0]} at record {i}"
                )
                break
            seen.update(r.sample_indices)
        total = log.metadata.get("total_sample_count")
        if total is None:
            problems.append(
                "accuracy log missing total_sample_count metadata; dataset "
                "coverage cannot be verified"
            )
        elif len(seen) != total:
            problems.append(
                f"accuracy run covered {len(seen)} of {total} dataset samples; "
                f"rules require the entire validation set"
            )

    return problems


def _check_claimed_summary(payload: dict, log: LoadGenLog) -> list[str]:
    """Recompute the summary from raw records; flag edited claims."""
    claimed = payload.get("summary")
    if claimed in (None, {}):
        return ["log file carries no summary block to cross-check"]
    if not isinstance(claimed, dict):
        return [f"summary block must be a dict, got {type(claimed).__name__}"]
    try:
        recomputed = log.summary()
    except (ValueError, ZeroDivisionError) as exc:
        return [f"summary cannot be recomputed from records: {exc}"]

    problems = []
    for key in sorted(set(claimed) | set(recomputed)):
        if key not in recomputed:
            problems.append(f"summary claims unknown field {key!r}")
            continue
        if key not in claimed:
            problems.append(f"summary is missing field {key!r}")
            continue
        a, b = claimed[key], recomputed[key]
        if isinstance(b, dict):
            if a != b:
                problems.append(
                    f"summary field {key!r} edited: claims {a!r}, records say {b!r}"
                )
        elif isinstance(b, int) and not isinstance(b, bool):
            # integer fields (seed, query_count) admit no tolerance at all
            if a != b:
                problems.append(
                    f"summary field {key!r} edited: claims {a!r}, "
                    f"recomputed {b!r} from the raw records"
                )
        elif isinstance(b, float):
            if not isinstance(a, (int, float)) or not math.isclose(
                float(a), float(b), rel_tol=_SUMMARY_RTOL, abs_tol=1e-12
            ):
                problems.append(
                    f"summary field {key!r} edited: claims {a!r}, "
                    f"recomputed {b!r} from the raw records"
                )
        elif a != b:
            problems.append(
                f"summary field {key!r} edited: claims {a!r}, records say {b!r}"
            )
    return problems


def validate_serialized(payload: object) -> list[str]:
    """Validate a deserialized log file the way the auditor receives it.

    Fault-tolerant: schema violations, malformed records, and type garbage
    become violation strings instead of exceptions, so one corrupt log file
    cannot crash a submission-checker sweep.
    """
    if not isinstance(payload, dict):
        return [f"log payload must be a JSON object, got {type(payload).__name__}"]
    if payload.get("schema_version") != LOG_SCHEMA_VERSION:
        return [
            f"unsupported or missing log schema version "
            f"{payload.get('schema_version')!r} (expected {LOG_SCHEMA_VERSION})"
        ]
    try:
        log = LoadGenLog.from_dict(payload)
    except ValueError as exc:
        return [f"log payload does not deserialize: {exc}"]
    problems = validate_log(log)
    problems += _check_claimed_summary(payload, log)
    return problems
