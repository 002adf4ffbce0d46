"""Fault injection for the LoadGen path (robustness hardening).

A :class:`FaultySUT` wraps any :class:`SystemUnderTest` and injects the
failure modes a real device fleet produces: query failures (the delegate
rejects the invocation), timeouts (the query never completes), and NaN
outputs (a corrupted latency reading). Faults are *transient by default* —
a faulted query succeeds after ``transient_attempts`` retries — so the
harness's bounded per-query retry can be exercised deterministically: set
``transient_attempts`` at or below the retry budget and the run recovers;
set it above and the query is dropped, degrading the run to a flagged
partial result.

Injection is seeded and independent of wall clock, so a fault-injected run
is exactly reproducible.
"""

from __future__ import annotations

import numpy as np

from .sut import SystemUnderTest

__all__ = ["QueryFault", "QueryFailure", "QueryTimeout", "FaultySUT"]


class QueryFault(RuntimeError):
    """Base class for injected (or real) per-query failures."""


class QueryFailure(QueryFault):
    """The SUT rejected or crashed on the query."""


class QueryTimeout(QueryFault):
    """The query never completed within the harness deadline."""


class FaultySUT(SystemUnderTest):
    """Wraps a SUT; injects seeded failures/timeouts/NaN latencies."""

    def __init__(
        self,
        inner: SystemUnderTest,
        *,
        failure_rate: float = 0.0,
        timeout_rate: float = 0.0,
        nan_rate: float = 0.0,
        seed: int = 0xFA017,
        transient_attempts: int = 1,
    ):
        rates = (failure_rate, timeout_rate, nan_rate)
        if any(r < 0 for r in rates) or sum(rates) > 1.0:
            raise ValueError("fault rates must be non-negative and sum to <= 1")
        if transient_attempts < 1:
            raise ValueError("transient_attempts must be positive")
        self.inner = inner
        self.name = f"{inner.name}+faults"
        self.failure_rate = failure_rate
        self.timeout_rate = timeout_rate
        self.nan_rate = nan_rate
        self.transient_attempts = transient_attempts
        self._rng = np.random.default_rng(seed)
        self.injected = {"failure": 0, "timeout": 0, "nan": 0}
        # retry continuation state: (indices of the query being faulted,
        # fault kind, remaining faulty attempts)
        self._pending: tuple[tuple[int, ...], str, int] | None = None

    # -- fault drawing -----------------------------------------------------
    def _draw_fault(self) -> str | None:
        u = float(self._rng.random())
        if u < self.failure_rate:
            return "failure"
        if u < self.failure_rate + self.timeout_rate:
            return "timeout"
        if u < self.failure_rate + self.timeout_rate + self.nan_rate:
            return "nan"
        return None

    def _raise_or_return(self, kind: str, key: tuple[int, ...]):
        self.injected[kind] += 1
        if kind == "failure":
            raise QueryFailure(f"injected query failure for samples {list(key)[:4]}")
        if kind == "timeout":
            raise QueryTimeout(f"injected query timeout for samples {list(key)[:4]}")
        return float("nan")

    def issue_query(self, indices: np.ndarray) -> float:
        key = tuple(int(i) for i in np.asarray(indices).ravel())
        if self._pending is not None and self._pending[0] == key:
            _, kind, remaining = self._pending
            if remaining > 0:
                self._pending = (key, kind, remaining - 1)
                return self._raise_or_return(kind, key)
            self._pending = None  # fault exhausted; the retry succeeds
            return self.inner.issue_query(indices)
        self._pending = None
        kind = self._draw_fault()
        if kind is not None:
            self._pending = (key, kind, self.transient_attempts - 1)
            return self._raise_or_return(kind, key)
        return self.inner.issue_query(indices)

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    # -- passthrough -------------------------------------------------------
    def run_offline(self, total_samples: int):
        """Offline bursts fail atomically: one draw covers the whole burst."""
        kind = self._draw_fault()
        if kind in ("failure", "timeout"):
            self.injected[kind] += 1
            exc = QueryFailure if kind == "failure" else QueryTimeout
            raise exc("injected fault during offline burst")
        run = getattr(self.inner, "run_offline", None)
        if run is None:
            raise TypeError(f"{type(self.inner).__name__} does not support offline bursts")
        return run(total_samples)

    def evaluate(self) -> dict[str, float]:
        evaluate = getattr(self.inner, "evaluate", None)
        if evaluate is None:
            raise TypeError(f"{type(self.inner).__name__} has no accuracy evaluation")
        return evaluate()

    @property
    def device(self):
        return getattr(self.inner, "device", None)
