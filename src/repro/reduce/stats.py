"""Reduction accounting: pruned classes, law applications, table hits.

Reduction must never silently change what a certificate claims was
explored, so every pruning decision is tallied and surfaced through
certificate provenance (a ``reduction`` block shaped like the coverage
map), the run ledger, ``repro.obs explain`` and the dashboard.

The block schema::

    {
      "axes":   ["dpor", "transpo", ...],        # axes active
      "pruned": {"dpor": n, "transpo": n},        # equivalence classes cut
      "laws":   {"merge-compatible-obligations": n}, # rg-simplify applications
      "table":  {"hits": h, "misses": m, "hit_rate": r},
    }

Zero-valued sections are omitted; an all-empty block is dropped
entirely, so certificates verified with reduction off gain no new
provenance fields.

Checkers open a :func:`reduction_collector` around one obligation's
work; the enumeration core and the law sites report through
:func:`tally_prune` / :func:`tally_law` / :func:`contribute`.  The
collector stack is a pool sink (:mod:`repro.obs.blocks`): a worker task
tallies into a fresh collector whose record the parent absorbs into
every collector it has open, in plan order, exactly like coverage and
redundancy records.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, FrozenSet, Iterable, List, Optional

from ..obs.blocks import register_block, register_stack_sink


class ReductionStats:
    """Counters for one collection scope (one obligation / subtree)."""

    __slots__ = ("axes", "pruned", "laws", "table_hits", "table_misses")

    def __init__(self, axes: Iterable[str] = ()):
        self.axes: FrozenSet[str] = frozenset(axes)
        self.pruned: Dict[str, int] = {}
        self.laws: Dict[str, int] = {}
        self.table_hits = 0
        self.table_misses = 0

    def prune(self, axis: str, count: int = 1) -> None:
        """``count`` schedules/branches cut as equivalent under ``axis``."""
        if count:
            self.pruned[axis] = self.pruned.get(axis, 0) + count

    def law(self, name: str, count: int = 1) -> None:
        """``count`` applications of one rg-simplify law."""
        if count:
            self.laws[name] = self.laws.get(name, 0) + count

    def table(self, hit: bool) -> None:
        if hit:
            self.table_hits += 1
        else:
            self.table_misses += 1

    @property
    def any(self) -> bool:
        return bool(
            self.pruned or self.laws or self.table_hits or self.table_misses
        )

    def absorb(self, record: Optional[Dict[str, Any]]) -> None:
        """Fold a worker's ``as_dict()`` record into this collector."""
        if not record:
            return
        self.axes = self.axes | frozenset(record.get("axes", ()))
        for axis, count in (record.get("pruned") or {}).items():
            self.prune(axis, count)
        for name, count in (record.get("laws") or {}).items():
            self.law(name, count)
        table = record.get("table") or {}
        self.table_hits += table.get("hits", 0)
        self.table_misses += table.get("misses", 0)

    def as_dict(self) -> Dict[str, Any]:
        """The provenance/ledger record (empty dict when nothing fired)."""
        if not self.any:
            return {}
        out: Dict[str, Any] = {"axes": sorted(self.axes)}
        if self.pruned:
            out["pruned"] = dict(sorted(self.pruned.items()))
        if self.laws:
            out["laws"] = dict(sorted(self.laws.items()))
        if self.table_hits or self.table_misses:
            total = self.table_hits + self.table_misses
            out["table"] = {
                "hits": self.table_hits,
                "misses": self.table_misses,
                "hit_rate": round(self.table_hits / total, 4),
            }
        return out


def merge_reduction_maps(
    records: Iterable[Optional[Dict[str, Any]]],
) -> Optional[Dict[str, Any]]:
    """Merge ``reduction`` blocks (provenance inheritance / ledger rollup)."""
    merged = ReductionStats()
    for record in records:
        merged.absorb(record)
    return merged.as_dict() or None


#: Ambient collector stack.  Checkers push a collector around one
#: obligation's work; the enumeration core and law sites tally into
#: every active collector (nesting is not expected but is harmless).
_COLLECTORS: List[ReductionStats] = []


@contextmanager
def reduction_collector(axes: Iterable[str] = ()):
    """Collect reduction tallies for one scope; yields the stats."""
    stats = ReductionStats(axes)
    _COLLECTORS.append(stats)
    try:
        yield stats
    finally:
        _COLLECTORS.pop()


def tally_law(name: str, count: int = 1) -> None:
    for collector in _COLLECTORS:
        collector.law(name, count)


def tally_prune(axis: str, count: int = 1) -> None:
    for collector in _COLLECTORS:
        collector.prune(axis, count)


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
