"""Reduction accounting: what DPOR removed from the game enumeration.

Reduction must never silently change what a certificate claims was
explored, so every pruning decision is tallied and surfaced through
certificate provenance (a ``reduction`` block shaped like the coverage
map), the run ledger, ``repro.obs explain`` and the dashboard.

The block schema::

    {"pruned": {"dpor": n, "sleep": s}}

``dpor`` counts the sibling branches first-branch dominance pruned and
the runs cut because every ready participant was asleep; ``sleep``
counts, at each pick that does not cut, the ready participants that
sleep sets excluded from branching.  An empty block is dropped
entirely, so certificates verified with reduction off gain no new
provenance fields.

:func:`~repro.core.contextual.check_soundness` opens a
:func:`reduction_collector` around each client's games; the enumeration
core reports through :func:`contribute`.  The collector stack is a pool
sink (:mod:`repro.obs.blocks`): a worker task tallies into a fresh
collector whose record the parent absorbs into every collector it has
open, in plan order, exactly like coverage and redundancy records.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Optional

from ..obs.blocks import register_block, register_stack_sink


class ReductionStats:
    """Counters for one collection scope (one obligation / subtree)."""

    __slots__ = ("pruned",)

    def __init__(self) -> None:
        self.pruned: Dict[str, int] = {}

    def prune(self, reason: str, count: int = 1) -> None:
        """``count`` schedules or branches cut for ``reason``."""
        if count:
            self.pruned[reason] = self.pruned.get(reason, 0) + count

    def absorb(self, record: Optional[Dict[str, Any]]) -> None:
        """Fold a worker's ``as_dict()`` record into this collector."""
        for reason, count in ((record or {}).get("pruned") or {}).items():
            self.prune(reason, count)

    def as_dict(self) -> Dict[str, Any]:
        """The provenance/ledger record (empty dict when nothing fired)."""
        return {"pruned": dict(sorted(self.pruned.items()))} if self.pruned else {}


def merge_reduction_maps(
    records: Iterable[Optional[Dict[str, Any]]],
) -> Optional[Dict[str, Any]]:
    """Merge ``reduction`` blocks (provenance inheritance / ledger rollup)."""
    merged = ReductionStats()
    for record in records:
        merged.absorb(record)
    return merged.as_dict() or None


#: Ambient collector stack.  A checker pushes a collector around one
#: obligation's games; the enumeration core contributes to every active
#: collector (nesting is not expected but is harmless).
_COLLECTORS: List[ReductionStats] = []


@contextmanager
def reduction_collector():
    """Collect reduction tallies for one scope; yields the stats."""
    stats = ReductionStats()
    _COLLECTORS.append(stats)
    try:
        yield stats
    finally:
        _COLLECTORS.pop()


def contribute(stats: ReductionStats) -> None:
    """Fold a locally built stats object into the ambient collectors."""
    record = stats.as_dict()
    for collector in _COLLECTORS:
        collector.absorb(record)


register_block(
    "reduction", merge_reduction_maps,
    ledger=lambda merged: {"reduction": merged},
)
register_stack_sink(
    "reduction", _COLLECTORS, ReductionStats, ReductionStats.as_dict,
    ReductionStats.absorb,
)
