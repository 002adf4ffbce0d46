"""In-memory span tracer with Chrome trace-event export.

A span is (name, start, end, parent). Spans live in memory and are written
once, at exit, in the trace-event format of LoadGen's
``mlperf_log_trace.json``, which opens in Perfetto or ``chrome://tracing``.

A span's self time is its duration minus the time its children cover.
Calls too frequent to record one span each (simulated queries) are *folded*
into the enclosing span instead: their durations count as that span's child
time and as self time of their own layer, and every duration is kept so the
layer can report percentiles.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field

__all__ = ["Span", "Tracer", "null_span"]


def null_span(name: str, **args):
    """Stand-in for :meth:`Tracer.span` when tracing is off."""
    return contextlib.nullcontext()


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans; -1 for a root span
    args: dict
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    folded: dict = field(default_factory=dict)  # folded layer -> seconds

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Single-threaded span recorder (the benchmark drives one thread)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.folded: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **args):
        parent = self._stack[-1] if self._stack else -1
        sp = Span(name, parent, args)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        sp.start = time.perf_counter()
        try:
            yield
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent].child_s += sp.duration

    def fold(self, name: str, seconds: float) -> None:
        """Attribute one short call of layer ``name`` to the open span."""
        self.folded[name].append(seconds)
        sp = self.spans[self._stack[-1]]
        sp.child_s += seconds
        sp.folded[name] = sp.folded.get(name, 0.0) + seconds

    def self_times(self) -> dict[tuple[str, str], float]:
        """Self seconds per (span name, span ``key`` arg), folded calls included."""
        out: dict[tuple[str, str], float] = defaultdict(float)
        for sp in self.spans:
            out[sp.name, sp.args.get("key", "")] += sp.self_s
        for name, values in self.folded.items():
            out[name, ""] += sum(values)
        return dict(out)

    def write_chrome_trace(self, path, metadata: dict) -> None:
        origin = min((s.start for s in self.spans), default=0.0)
        pid = os.getpid()
        events: list[dict] = [
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": "perfbench"}},
        ]
        for i, sp in enumerate(self.spans):
            args = dict(sp.args)
            args.update(id=i, parent=sp.parent, self_us=round(sp.self_s * 1e6, 3))
            for name, seconds in sp.folded.items():
                args[f"folded:{name}_us"] = round(seconds * 1e6, 3)
            events.append({
                "name": sp.name,
                "cat": sp.name.split(".", 1)[0],
                "ph": "X",
                "ts": round((sp.start - origin) * 1e6, 3),
                "dur": round(sp.duration * 1e6, 3),
                "pid": pid,
                "tid": 0,
                "args": args,
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": metadata}, fh)
