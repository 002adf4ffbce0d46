"""Per-op execution profiler for the planned executor.

Collects, per op, the kernel wall time, the bytes moved (input + output
tensor payloads) and the call count, plus the peak number of live activation
bytes observed across a run — the quantity tensor-liveness planning is meant
to shrink. ``examples/profile_inference.py`` shows it in use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["OpProfile", "ExecutionProfiler"]


@dataclass
class OpProfile:
    """Aggregated statistics for one op across all profiled runs."""

    name: str
    op_type: str
    calls: int = 0
    total_seconds: float = 0.0
    bytes_moved: int = 0

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.calls if self.calls else 0.0

    @property
    def bandwidth_gbs(self) -> float:
        """Apparent memory bandwidth (moved bytes / kernel time)."""
        if self.total_seconds <= 0:
            return 0.0
        return self.bytes_moved / self.total_seconds / 1e9

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "op_type": self.op_type,
            "calls": self.calls,
            "total_seconds": self.total_seconds,
            "mean_seconds": self.mean_seconds,
            "bytes_moved": self.bytes_moved,
            "bandwidth_gbs": self.bandwidth_gbs,
        }


@dataclass
class ExecutionProfiler:
    """Accumulates per-op stats; pass one to ``ExecutionPlan.run``.

    A single profiler may be reused across many queries — stats accumulate
    and ``peak_live_bytes`` tracks the maximum over all profiled runs.
    """

    ops: dict[str, OpProfile] = field(default_factory=dict)
    peak_live_bytes: int = 0
    runs: int = 0

    def record(self, name: str, op_type: str, seconds: float, bytes_moved: int) -> None:
        entry = self.ops.get(name)
        if entry is None:
            entry = self.ops[name] = OpProfile(name=name, op_type=op_type)
        entry.calls += 1
        entry.total_seconds += seconds
        entry.bytes_moved += bytes_moved

    def note_live_bytes(self, live_bytes: int) -> None:
        if live_bytes > self.peak_live_bytes:
            self.peak_live_bytes = live_bytes

    @property
    def total_seconds(self) -> float:
        return sum(p.total_seconds for p in self.ops.values())

    def top(self, n: int = 10) -> list[OpProfile]:
        """The ``n`` most expensive ops by accumulated kernel time."""
        return sorted(self.ops.values(), key=lambda p: p.total_seconds, reverse=True)[:n]

    def as_dict(self) -> dict:
        return {
            "runs": self.runs,
            "total_seconds": self.total_seconds,
            "peak_live_bytes": self.peak_live_bytes,
            "ops": [p.as_dict() for p in self.top(len(self.ops))],
        }

    def summary(self, n: int = 10) -> str:
        """Human-readable top-``n`` table."""
        total = self.total_seconds or 1.0
        lines = [
            f"{'op':<40} {'type':<18} {'calls':>6} {'time_ms':>9} {'%':>6} {'MB moved':>9}",
            "-" * 92,
        ]
        for p in self.top(n):
            lines.append(
                f"{p.name:<40} {p.op_type:<18} {p.calls:>6} "
                f"{p.total_seconds * 1e3:>9.3f} {100 * p.total_seconds / total:>5.1f}% "
                f"{p.bytes_moved / 1e6:>9.2f}"
            )
        lines.append(
            f"total {self.total_seconds * 1e3:.3f} ms over {len(self.ops)} ops; "
            f"peak live activations {self.peak_live_bytes / 1e6:.3f} MB"
        )
        return "\n".join(lines)
