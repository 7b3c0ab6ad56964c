"""Exploration-coverage accounting for every bounded enumeration.

A green certificate in this reproduction means "no obligation failed
*within the explored bound*" — the rely/guarantee obligations are only
as strong as the schedule and environment-context space actually
replayed against them.  This module makes that quantity first-class:
every bounded enumeration (environment contexts, scheduler decision
prefixes, thread games, argument vectors, log universes) reports an
:class:`AxisCoverage`-shaped record — explored vs. budget, a depth
histogram over the enumeration's branching prefix, how much was pruned
and why — which checkers roll into certificate provenance (the
``coverage`` key) and the run report's *coverage map* section.

The records are plain dicts at the edges so they serialize straight
into ``Certificate.to_json()`` / the JSONL event stream:

    {"axis": "env_contexts", "explored": 41, "budget": 20000,
     "pruned": 6, "distinct": 12, "depth_bound": 2,
     "depth_histogram": {"0": 1, "1": 8, "2": 32},
     "exhausted": true, "mode": "exhaustive"}

``exhausted`` means the *bounded* space was fully enumerated (the DFS
drained its stack before hitting the run budget); ``mode`` is
``"exhaustive"`` for complete bounded enumerations and ``"sampled"``
for scheduler-family sampling, where coverage is explicitly partial.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, Optional

from .blocks import format_rows, register_block, register_sink
from .trace import _STATE, obs_enabled

EXHAUSTIVE = "exhaustive"
SAMPLED = "sampled"


class CoverageBuilder:
    """Accumulates one enumeration axis' exploration statistics.

    Enumerators call :meth:`visit` once per run (with the branching
    depth of the prefix that produced it) and :meth:`prune` for runs
    discarded before counting (rely-invalid environment contexts).
    ``as_dict`` freezes the result into the serializable record format.
    Builders are cheap, single-threaded helpers — the enumeration loops
    they instrument are sequential.
    """

    __slots__ = (
        "axis", "budget", "depth_bound", "mode", "explored", "pruned",
        "distinct", "depths", "exhausted",
    )

    def __init__(
        self,
        axis: str,
        budget: Optional[int] = None,
        depth_bound: Optional[int] = None,
        mode: str = EXHAUSTIVE,
    ):
        self.axis = axis
        self.budget = budget
        self.depth_bound = depth_bound
        self.mode = mode
        self.explored = 0
        self.pruned = 0
        self.distinct: Optional[int] = None
        self.depths: Dict[int, int] = {}
        self.exhausted = True

    def visit(self, depth: Optional[int] = None, n: int = 1) -> None:
        self.explored += n
        if depth is not None:
            self.depths[depth] = self.depths.get(depth, 0) + n

    def prune(self, n: int = 1) -> None:
        self.pruned += n

    def as_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "axis": self.axis,
            "explored": self.explored,
            "budget": self.budget,
            "pruned": self.pruned,
            "exhausted": self.exhausted,
            "mode": self.mode,
        }
        if self.distinct is not None:
            record["distinct"] = self.distinct
        if self.depth_bound is not None:
            record["depth_bound"] = self.depth_bound
        if self.depths:
            record["depth_histogram"] = {
                str(depth): count for depth, count in sorted(self.depths.items())
            }
        return record

    def record(self) -> Dict[str, Any]:
        """Freeze and publish to the process-wide registry (obs-gated)."""
        record = self.as_dict()
        record_coverage(record)
        return record


class CoverageRegistry:
    """Thread-safe sink of every coverage record of the current run.

    Feeds the "coverage map" section of :func:`repro.obs.render_report`
    / :func:`repro.obs.report_json`: the per-axis aggregate of all
    enumerations the run performed, independent of which certificate
    each one landed in.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._records: List[Dict[str, Any]] = []

    def record(self, record: Dict[str, Any]) -> None:
        with self._lock:
            self._records.append(dict(record))

    def reset(self) -> None:
        with self._lock:
            self._records = []

    @property
    def records(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [dict(r) for r in self._records]

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def coverage_map(self) -> Dict[str, Dict[str, Any]]:
        """Aggregate the run's records per axis (the report view)."""
        by_axis: Dict[str, List[Dict[str, Any]]] = {}
        for record in self.records:
            by_axis.setdefault(record.get("axis", "?"), []).append(record)
        return {
            axis: _merge_axis(records) for axis, records in sorted(by_axis.items())
        }


COVERAGE = CoverageRegistry()


def record_coverage(record: Dict[str, Any]) -> None:
    """Publish one coverage record (no-op while observability is off)."""
    if not _STATE.enabled:
        return
    COVERAGE.record(record)


def coverage_map() -> Dict[str, Dict[str, Any]]:
    """The per-axis aggregate of everything recorded so far."""
    return COVERAGE.coverage_map()


def _merge_axis(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge several records of one axis into a single aggregate."""
    merged: Dict[str, Any] = {
        "axis": records[0].get("axis"),
        "enumerations": len(records),
        "explored": sum(r.get("explored", 0) for r in records),
        "pruned": sum(r.get("pruned", 0) for r in records),
        "exhausted": all(r.get("exhausted", False) for r in records),
    }
    budgets = [r.get("budget") for r in records if r.get("budget") is not None]
    merged["budget"] = sum(budgets) if budgets else None
    distincts = [r.get("distinct") for r in records if r.get("distinct") is not None]
    if distincts:
        merged["distinct"] = sum(distincts)
    bounds = [r.get("depth_bound") for r in records if r.get("depth_bound") is not None]
    if bounds:
        merged["depth_bound"] = max(bounds)
    histogram: Dict[str, int] = {}
    for record in records:
        for depth, count in (record.get("depth_histogram") or {}).items():
            histogram[depth] = histogram.get(depth, 0) + count
    if histogram:
        merged["depth_histogram"] = {
            depth: histogram[depth]
            for depth in sorted(histogram, key=lambda d: int(d))
        }
    modes = {r.get("mode", EXHAUSTIVE) for r in records}
    merged["mode"] = modes.pop() if len(modes) == 1 else "mixed"
    return merged


def merge_coverage_maps(
    maps: Iterable[Optional[Dict[str, Dict[str, Any]]]],
) -> Dict[str, Dict[str, Any]]:
    """Merge child certificates' ``coverage`` provenance maps.

    Composition rules (Vcomp, Hcomp, Wk, Pcomp) do not enumerate
    anything themselves; their certificates inherit the union of their
    premises' coverage, axis by axis, so the root of a derivation states
    the total exploration that backs it.
    """
    by_axis: Dict[str, List[Dict[str, Any]]] = {}
    for cov in maps:
        if not cov:
            continue
        for axis, record in cov.items():
            entry = dict(record)
            entry.setdefault("axis", axis)
            by_axis.setdefault(axis, []).append(entry)
    merged = {}
    for axis, records in sorted(by_axis.items()):
        entry = _merge_axis(records)
        entry["enumerations"] = sum(
            r.get("enumerations", 1) for r in records
        )
        merged[axis] = entry
    return merged


def render_coverage_map(
    coverage: Optional[Dict[str, Dict[str, Any]]] = None,
) -> List[str]:
    """The "coverage map" section: per enumeration axis, explored vs.
    budget, depth bound, and whether the bounded space was exhausted
    (``coverage`` defaults to this run's :func:`coverage_map`)."""
    coverage = coverage if coverage is not None else coverage_map()
    if not coverage:
        return []
    rows = []
    for axis, entry in sorted(coverage.items()):
        budget = entry.get("budget")
        rows.append(
            [
                axis,
                str(entry.get("enumerations", 1)),
                str(entry.get("explored", 0)),
                str(budget) if budget is not None else "∞",
                str(entry.get("pruned", 0)),
                str(entry.get("distinct", "-")),
                str(entry.get("depth_bound", "-")),
                entry.get("mode", "exhaustive"),
                "yes" if entry.get("exhausted") else "no",
            ]
        )
    lines = ["coverage map (per enumeration axis):"]
    lines.extend(
        format_rows(
            [
                "axis", "enums", "explored", "budget", "pruned",
                "distinct", "depth", "mode", "exhausted",
            ],
            rows,
        )
    )
    return lines


def _absorb_records(records: List[Dict[str, Any]]) -> None:
    for record in records:
        COVERAGE.record(record)


register_block("coverage", merge_coverage_maps, render_coverage_map)
register_sink(
    "coverage",
    mark=lambda: len(COVERAGE) if _STATE.enabled else None,
    since=lambda mark: COVERAGE.records[mark:],
    absorb=_absorb_records,
)
