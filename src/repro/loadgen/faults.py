"""The per-query fault the LoadGen retries (robustness hardening).

A SUT raises :class:`QueryFault` (or a subclass) when one query fails: the
delegate rejected it, or it never completed. The LoadGen retries the query
within a bounded budget and drops it once the budget is spent, instead of
letting one fault crash the run (see ``LoadGenerator``).
"""

from __future__ import annotations

__all__ = ["QueryFault"]


class QueryFault(RuntimeError):
    """Base class for injected (or real) per-query failures."""
