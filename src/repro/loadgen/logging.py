"""Structured LoadGen run logs (paper §4.1, §6.2).

Every run emits a :class:`LoadGenLog` — settings, per-query records, and a
computed summary. Submissions must include these logs unedited; the
submission checker and the independent audit both consume them.

The records are columns (:class:`RecordColumns`), one array per field, so a
run of tens of thousands of queries is a handful of arrays, not one object
per query. Logs serialize losslessly: ``from_dict(to_dict(log)) == log``.
The on-disk form carries a schema version plus a *claimed* summary block
that the conformance checker recomputes from the raw records, so an edited
log file is caught even when the edit is self-consistent JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["RecordColumns", "LoadGenLog", "LOG_SCHEMA_VERSION"]

# Bump when the serialized layout changes; from_dict refuses unknown versions
# so the auditor never silently misreads a foreign or corrupted package.
LOG_SCHEMA_VERSION = 3

# the JSON type each non-numeric log field must have
_FIELD_TYPES = {
    "scenario": str, "mode": str, "task": str, "model": str, "sut": str,
    "accuracy": dict, "metadata": dict, "records": dict,
}


# the record columns and their dtypes, in serialized order
_COLUMNS = {
    "issue_time": np.float64, "latency_s": np.float64, "temperature_c": np.float64,
    "sample_indices": np.int64, "sample_offsets": np.int64,
}


@dataclass(eq=False)
class RecordColumns:
    """A log's per-query records, one array per field.

    Query ``i`` was issued at ``issue_time[i]`` (virtual seconds), took
    ``latency_s[i]``, left the die at ``temperature_c[i]`` and carried the
    samples ``sample_indices[sample_offsets[i]:sample_offsets[i + 1]]``.
    ``len()`` is the query count, so an empty log's records are falsy.
    """

    issue_time: np.ndarray = ()
    latency_s: np.ndarray = ()
    temperature_c: np.ndarray = ()
    sample_indices: np.ndarray = ()
    sample_offsets: np.ndarray = (0,)

    def __post_init__(self) -> None:
        for name, dtype in _COLUMNS.items():
            setattr(self, name, np.asarray(getattr(self, name), dtype=dtype))
        shapes = {name: getattr(self, name).shape for name in _COLUMNS}
        n = len(self.issue_time)
        if any(len(shape) != 1 for shape in shapes.values()) or not (
            len(self.latency_s) == len(self.temperature_c) == n
        ):
            raise ValueError(f"record columns must be flat and of one length, got shapes {shapes}")
        offsets = self.sample_offsets
        if not (len(offsets) == n + 1 and offsets[0] == 0
                and offsets[-1] == len(self.sample_indices) and (np.diff(offsets) >= 0).all()):
            raise ValueError(f"sample_offsets must rise from 0 to the {len(self.sample_indices)} "
                             f"sample indices in {n + 1} steps")

    def __len__(self) -> int:
        return len(self.issue_time)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RecordColumns):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name)) for name in _COLUMNS)

    def to_dict(self) -> dict[str, list]:
        return {name: getattr(self, name).tolist() for name in _COLUMNS}

    @classmethod
    def from_dict(cls, payload: dict) -> "RecordColumns":
        """Inverse of :meth:`to_dict`; raises ``ValueError`` on bad input.

        Each value converts as ``float()`` or ``int()`` would, except that a
        JSON ``null`` in a float column is refused, not read as NaN.
        """
        if set(payload) != set(_COLUMNS):
            raise ValueError(f"records must hold exactly the columns {list(_COLUMNS)}, "
                             f"got {list(payload)}")
        columns = {}
        for name, dtype in _COLUMNS.items():
            values = payload[name]
            if not isinstance(values, list):
                raise ValueError(f"record column {name!r} is a {type(values).__name__}, not a list")
            try:
                column = np.fromiter(values, dtype, len(values))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"malformed record column {name!r} ({exc})") from exc
            if dtype is np.float64:
                nulls = [i for i in np.flatnonzero(np.isnan(column)) if values[i] is None]
                if nulls:
                    raise ValueError(f"record column {name!r} holds null at index {nulls[0]}")
            columns[name] = column
        return cls(**columns)


@dataclass
class LoadGenLog:
    scenario: str  # "single_stream" | "offline"
    mode: str  # "performance" | "accuracy"
    task: str
    model_name: str
    sut_name: str
    seed: int
    min_query_count: int
    min_duration_s: float
    latency_percentile: float = 90.0
    records: RecordColumns = field(default_factory=RecordColumns)
    accuracy: dict[str, float] = field(default_factory=dict)
    offline_samples: int = 0
    offline_seconds: float = 0.0
    energy_joules: float = 0.0
    metadata: dict = field(default_factory=dict)

    # -- summary -----------------------------------------------------------
    @property
    def query_count(self) -> int:
        return len(self.records)

    @property
    def total_duration_s(self) -> float:
        if not self.records:
            return self.offline_seconds
        return float(self.records.issue_time[-1] + self.records.latency_s[-1])

    def latencies(self) -> np.ndarray:
        return self.records.latency_s

    def percentile_latency(self, percentile: float | None = None) -> float:
        """Nearest-rank (ordinal) percentile, as the MLPerf LoadGen defines it.

        Sort the N latencies and take index ``ceil(p/100 * N) - 1`` — no
        interpolation between order statistics (Reddi et al. 2019, run rules).
        """
        if percentile is None:
            percentile = self.latency_percentile
        if not 0.0 < percentile <= 100.0:
            raise ValueError("percentile must be in (0, 100]")
        lat = self.latencies()
        if lat.size == 0:
            raise ValueError("no query records in log")
        rank = max(math.ceil(percentile / 100.0 * lat.size), 1)
        return float(np.sort(lat)[rank - 1])

    def throughput_fps(self) -> float:
        if self.scenario == "offline":
            if self.offline_seconds <= 0:
                raise ValueError("offline log missing duration")
            return self.offline_samples / self.offline_seconds
        return self.query_count / self.total_duration_s

    def _percentile_key(self) -> str:
        return f"latency_p{self.latency_percentile:g}_ms"

    def summary(self) -> dict:
        out = {
            "scenario": self.scenario,
            "mode": self.mode,
            "task": self.task,
            "model": self.model_name,
            "sut": self.sut_name,
            "seed": self.seed,
            "query_count": self.query_count,
            "duration_s": round(self.total_duration_s, 6),
            "energy_joules": round(self.energy_joules, 6),
        }
        if self.mode == "accuracy":
            out["accuracy"] = dict(self.accuracy)
        elif self.scenario == "single_stream":
            out[self._percentile_key()] = round(self.percentile_latency() * 1e3, 6)
            out["latency_mean_ms"] = round(float(self.latencies().mean()) * 1e3, 6)
        elif self.offline_seconds > 0:  # else the validator reports the missing duration
            out["throughput_fps"] = round(self.throughput_fps(), 3)
        return out

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        """Full lossless form (the 'unedited log file').

        The ``summary`` block is *claimed*, derived data; the conformance
        checker recomputes it from ``records`` and rejects mismatches.
        """
        return {
            "schema_version": LOG_SCHEMA_VERSION,
            "scenario": self.scenario,
            "mode": self.mode,
            "task": self.task,
            "model": self.model_name,
            "sut": self.sut_name,
            "seed": self.seed,
            "min_query_count": self.min_query_count,
            "min_duration_s": self.min_duration_s,
            "latency_percentile": self.latency_percentile,
            "offline_samples": self.offline_samples,
            "offline_seconds": self.offline_seconds,
            "energy_joules": self.energy_joules,
            "accuracy": dict(self.accuracy),
            "metadata": dict(self.metadata),
            "records": self.records.to_dict(),
            "summary": self.summary() if (self.records or self.offline_seconds > 0) else {},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LoadGenLog":
        """Inverse of :meth:`to_dict`; raises ``ValueError`` on bad input.

        Derived fields (the claimed ``summary`` block) are ignored — the log
        is rebuilt from raw fields only, so validation always runs against
        what the records actually say.
        """
        if not isinstance(payload, dict):
            raise ValueError(f"log payload must be a dict, got {type(payload).__name__}")
        version = payload.get("schema_version")
        if version != LOG_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported log schema version {version!r}; "
                f"this checker reads version {LOG_SCHEMA_VERSION}"
            )
        missing = [
            k for k in ("scenario", "mode", "task", "model", "sut", "seed",
                        "min_query_count", "min_duration_s")
            if k not in payload
        ]
        if missing:
            raise ValueError(f"log payload missing required fields: {missing}")
        wrong = [
            k for k, t in _FIELD_TYPES.items() if k in payload and not isinstance(payload[k], t)
        ]
        if wrong:
            raise ValueError(f"log payload fields of the wrong type: {wrong}")
        try:
            log = cls(
                scenario=payload["scenario"],
                mode=payload["mode"],
                task=payload["task"],
                model_name=payload["model"],
                sut_name=payload["sut"],
                seed=int(payload["seed"]),
                min_query_count=int(payload["min_query_count"]),
                min_duration_s=float(payload["min_duration_s"]),
                latency_percentile=float(payload.get("latency_percentile", 90.0)),
            )
            log.offline_samples = int(payload.get("offline_samples", 0))
            log.offline_seconds = float(payload.get("offline_seconds", 0.0))
            log.energy_joules = float(payload.get("energy_joules", 0.0))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed numeric field ({exc})") from exc
        log.accuracy = dict(payload.get("accuracy", {}))
        log.metadata = dict(payload.get("metadata", {}))
        if "records" in payload:
            log.records = RecordColumns.from_dict(payload["records"])
        return log
