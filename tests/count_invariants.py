"""Small replay-fold invariants for tests: counts of named events."""

from __future__ import annotations

from repro.core import LogInvariant, ReplayFn


def _count_init(name, tid):
    return 0


def _count_step(count, event, name, tid):
    if (name is None or event.name == name) and (tid is None or event.tid == tid):
        return count + 1
    return count


event_count = ReplayFn("event_count", _count_init, _count_step)
"""The number of events named ``name`` (any name when None) appended by
``tid`` (any participant when None)."""


def count_inv(label, name, verdict, tid=None):
    """Holds when ``verdict`` accepts the count of ``name`` events of ``tid``."""
    return LogInvariant(label, event_count, (name, tid), verdict=verdict)
