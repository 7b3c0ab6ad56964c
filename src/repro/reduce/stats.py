"""Reduction accounting: what DPOR removed from the game enumeration.

Reduction must never silently change what a certificate claims was
explored, so every pruning decision is tallied and surfaced through
certificate provenance (a ``reduction`` block shaped like the coverage
map), which renders itself for the run ledger, ``repro.obs explain``
and the dashboard.

The block schema::

    {"pruned": {"dpor": n, "sleep": s}}

``dpor`` counts the sibling branches first-branch dominance pruned and
the runs cut because every ready participant was asleep; ``sleep``
counts, at each pick that does not cut, the ready participants that
sleep sets excluded from branching.  An empty block is dropped
entirely, so certificates verified with reduction off gain no new
provenance fields.

The enumeration core counts into a local :class:`ReductionStats` and
flushes it once per enumeration through :func:`contribute`, which
tallies each reason (:func:`repro.obs.blocks.tally`).
:func:`~repro.core.contextual.check_soundness` counts each client's
cuts in a ``tallies("dpor", "sleep")`` scope; counts made in fork-pool
workers reach it through the ``tallies`` pool sink, in plan order.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from ..obs.blocks import register_block, tally


class ReductionStats:
    """DPOR's local counter for one enumeration or subtree, flushed by
    :func:`contribute`; also the accumulator of block merges."""

    __slots__ = ("pruned",)

    def __init__(self) -> None:
        self.pruned: Dict[str, int] = {}

    def prune(self, reason: str, count: int = 1) -> None:
        """``count`` schedules or branches cut for ``reason``."""
        if count:
            self.pruned[reason] = self.pruned.get(reason, 0) + count

    def absorb(self, record: Optional[Dict[str, Any]]) -> None:
        """Fold a ``reduction`` block (an ``as_dict()`` record) in."""
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


def contribute(stats: ReductionStats) -> None:
    """Tally a locally built stats object into the open scopes."""
    for reason, count in stats.pruned.items():
        tally(reason, count)


def render_reduction(reduction: Dict[str, Any]) -> List[str]:
    """The ``reduction`` block's line: what DPOR pruned, by reason."""
    pruned = reduction.get("pruned") or {}
    if not pruned:
        return ["reduction: (no prunes)"]
    return ["reduction: pruned=" + ",".join(
        f"{reason}:{count}" for reason, count in sorted(pruned.items())
    )]


def _reduction_metrics(reduction: Dict[str, Any]) -> Dict[str, float]:
    pruned = reduction.get("pruned") or {}
    return {"reduction_pruned": float(sum(pruned.values()))} if pruned else {}


register_block(
    "reduction", merge_reduction_maps, render_reduction,
    metrics=_reduction_metrics,
)
