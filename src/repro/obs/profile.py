"""Deep state-space profiling for the enumeration core.

The top ROADMAP items — state-space reduction and parallel scaling —
need a *measurement* layer before any reduction can be claimed sound
and worth building.  This module provides it, as a second opt-in tier
on top of :mod:`repro.obs`:

* **Redundancy accounting** (:class:`RedundancyBuilder`) — every
  bounded enumeration hash-conses the outcome fingerprint of each
  explored state and counts how many executed runs were
  replay-equivalent to one already seen (``duplicates``), how many were
  pure prefix re-executions of the DFS (``replayed``), and the
  per-decision-point branching factors.  The resulting *redundancy
  ratio* — the fraction of execution work that discovered nothing new —
  is the measured headroom left for reduction, recorded into
  certificate provenance next to the coverage map.

* **Enumeration-frame spans** (:func:`profile_span`) — obligation
  groups (argument vectors, scenarios, soundness clients) and
  enumeration stages open real :func:`repro.obs.span`\\ s only while
  profiling is on, so the span tree gains the rule → obligation →
  enumeration-stage resolution the flamegraph export
  (:mod:`repro.obs.flamegraph`) renders.

* **Pool observability** (:class:`ProfileCollector`) — the fork pool
  records one timeline entry per worker task (queue wait, execution,
  result-ship overhead, worker pid) and one entry per batch (pool
  setup cost, queue depth), enough to explain exactly where an
  N-worker regression comes from.

Profiling is **off by default** and strictly additive: with profiling
off, every hook is a flag test, no new spans/metrics/provenance are
produced, and obs-off certificates stay byte-identical to a build
without the profiler (enforced by ``tests/obs/test_profile.py``).
Enabling profiling implies enabling :mod:`repro.obs` (spans and
provenance are the transport).  Enable with :func:`enable_profiling` /
the :func:`profiling` context manager, or ``REPRO_PROFILE=1`` in the
environment.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from itertools import islice
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..envflags import env_flag
from .blocks import register_block, register_sink
from .trace import NOOP_SPAN, span

#: Environment switch: a truthy value enables profiling at import time.
PROFILE_ENV = "REPRO_PROFILE"


class _ProfileState:
    """The module-wide profiling flag (a class so tests can monkeypatch)."""

    __slots__ = ("enabled",)

    def __init__(self):
        self.enabled = False


_PROF = _ProfileState()


def profile_enabled() -> bool:
    """Whether deep state-space profiling is currently on."""
    return _PROF.enabled


class ProfileCollector:
    """Thread-safe sink for profiling data that is not a span.

    Three record families, all plain dicts at the edges so they
    serialize straight into the JSONL event stream:

    * ``redundancy`` — frozen :class:`RedundancyBuilder` records, one
      per enumeration (axis-tagged like coverage records);
    * ``pool_tasks`` — one entry per worker task: queue wait,
      execution time, result-ship overhead, worker pid;
    * ``pool_batches`` — one entry per ``parallel_map`` batch: item
      count, worker count, pool setup (fork) cost.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._redundancy: List[Dict[str, Any]] = []
        self._pool_tasks: List[Dict[str, Any]] = []
        self._pool_batches: List[Dict[str, Any]] = []

    def reset(self) -> None:
        with self._lock:
            self._redundancy = []
            self._pool_tasks = []
            self._pool_batches = []

    def record_redundancy(self, record: Dict[str, Any]) -> None:
        with self._lock:
            self._redundancy.append(dict(record))

    def record_pool_task(self, record: Dict[str, Any]) -> None:
        with self._lock:
            self._pool_tasks.append(dict(record))

    def record_pool_batch(self, record: Dict[str, Any]) -> None:
        with self._lock:
            self._pool_batches.append(dict(record))

    @property
    def redundancy(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [dict(r) for r in self._redundancy]

    def redundancy_count(self) -> int:
        """A mark for :meth:`redundancy_since` (pool delta shipping)."""
        with self._lock:
            return len(self._redundancy)

    def redundancy_since(self, mark: int) -> List[Dict[str, Any]]:
        """Records published after ``mark`` (shipped worker → parent)."""
        with self._lock:
            return [dict(r) for r in self._redundancy[mark:]]

    @property
    def pool_tasks(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [dict(r) for r in self._pool_tasks]

    @property
    def pool_batches(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [dict(r) for r in self._pool_batches]

    def redundancy_map(self) -> Dict[str, Dict[str, Any]]:
        """Per-axis aggregate of every redundancy record of the run."""
        by_axis: Dict[str, List[Dict[str, Any]]] = {}
        for record in self.redundancy:
            by_axis.setdefault(record.get("axis", "?"), []).append(record)
        return {
            axis: merge_redundancy(records)
            for axis, records in sorted(by_axis.items())
        }

    def pool_utilization(self) -> Dict[str, Any]:
        """Worker utilization + overhead rollup of every pool batch.

        Explains an N-worker ledger: per-worker busy seconds over the
        batch wall-clock envelope, total queue wait, total result-ship
        overhead, and total pool setup (fork) cost.
        """
        tasks = self.pool_tasks
        batches = self.pool_batches
        if not tasks and not batches:
            return {}
        by_pid: Dict[int, float] = {}
        queue_s = ship_s = exec_s = 0.0
        t_min = float("inf")
        t_max = 0.0
        for task in tasks:
            pid = task.get("pid", 0)
            by_pid[pid] = by_pid.get(pid, 0.0) + task.get("exec_s", 0.0)
            queue_s += task.get("queue_s", 0.0)
            ship_s += task.get("ship_s", 0.0)
            exec_s += task.get("exec_s", 0.0)
            if "submit_s" in task:
                t_min = min(t_min, task["submit_s"])
            if "received_s" in task:
                t_max = max(t_max, task["received_s"])
        wall_s = max(0.0, t_max - t_min) if tasks else 0.0
        setup_s = sum(b.get("setup_s", 0.0) for b in batches)
        out: Dict[str, Any] = {
            "batches": len(batches),
            "tasks": len(tasks),
            "workers": len(by_pid),
            "wall_s": round(wall_s, 6),
            "exec_s": round(exec_s, 6),
            "queue_s": round(queue_s, 6),
            "ship_s": round(ship_s, 6),
            "setup_s": round(setup_s, 6),
            "busy_s_by_worker": {
                str(pid): round(busy, 6) for pid, busy in sorted(by_pid.items())
            },
        }
        if wall_s > 0 and by_pid:
            out["utilization"] = round(
                exec_s / (wall_s * len(by_pid)), 4
            )
        return out

    def run_summary(self) -> Dict[str, Any]:
        """The profile rollup a run-ledger record embeds: redundancy by
        axis plus pool utilization, omitting empty sections.
        """
        out: Dict[str, Any] = {}
        redundancy = self.redundancy_map()
        if redundancy:
            out["redundancy_by_axis"] = redundancy
        pool = self.pool_utilization()
        if pool:
            out["pool"] = pool
        return out


PROFILER = ProfileCollector()


def profiler() -> ProfileCollector:
    """The process-wide profile collector."""
    return PROFILER


def enable_profiling(reset: bool = True) -> ProfileCollector:
    """Turn deep profiling on (implies enabling :mod:`repro.obs`).

    With ``reset`` the profile collector is cleared; the obs layer is
    enabled *without* resetting if it is already collecting, so
    profiling can be switched on mid-run.
    """
    from . import trace

    if reset:
        PROFILER.reset()
    if not trace.obs_enabled():
        trace.enable(reset=reset)
    _PROF.enabled = True
    return PROFILER


def disable_profiling() -> None:
    """Turn profiling off (collected data stays readable/exportable)."""
    _PROF.enabled = False


@contextmanager
def profiling(reset: bool = True):
    """``with profiling() as profiler:`` — profile the block's duration."""
    was_enabled = _PROF.enabled
    yield_value = enable_profiling(reset=reset)
    try:
        yield yield_value
    finally:
        _PROF.enabled = was_enabled


def profile_span(name: str, **args: Any):
    """An extra span recorded only while profiling is on.

    Obligation groups and enumeration stages use these to refine the
    span tree for the flamegraph without burdening plain-obs runs.
    """
    if not _PROF.enabled:
        return NOOP_SPAN
    return span(name, category="profile", **args)


# The hash-consing helper of the redundancy accounting.  Plain ``hash``
# over the part tuple: cheap, and stable across the fork boundary
# (workers inherit the parent's hash seed), which is all it needs —
# fingerprints are only ever compared within one run.
from ..reduce.fingerprint import state_fingerprint  # noqa: E402,F401


class RedundancyBuilder:
    """Accumulates one enumeration's redundancy statistics.

    Enumerators report every machine run they execute:

    * :meth:`visit` with a fingerprint — a run that produced an outcome;
      outcomes whose fingerprint was already seen count as
      ``duplicates`` (replay-equivalent states explored again);
    * :meth:`visit` with ``replay=True`` — a run that terminated early
      without an outcome (an environment-choice prefix already covered
      by a shorter one): pure re-execution overhead;
    * :meth:`branch` — one decision point's branching factor.

    The **redundancy ratio** is ``(explored - distinct) / explored``:
    the fraction of executed machine runs that discovered no new state
    — the measured DPOR / hash-consing headroom.
    """

    __slots__ = ("axis", "replayed", "_counts", "branching")

    def __init__(self, axis: str):
        self.axis = axis
        self.replayed = 0
        self._counts: Dict[int, int] = {}
        self.branching: Dict[int, int] = {}

    def visit(self, fingerprint: Optional[int] = None,
              replay: bool = False) -> None:
        if replay:
            self.replayed += 1
            return
        if fingerprint is not None:
            self._counts[fingerprint] = self._counts.get(fingerprint, 0) + 1

    def branch(self, factor: int, n: int = 1) -> None:
        self.branching[factor] = self.branching.get(factor, 0) + n

    @property
    def completed(self) -> int:
        return sum(self._counts.values())

    @property
    def distinct(self) -> int:
        return len(self._counts)

    @property
    def explored(self) -> int:
        return self.completed + self.replayed

    @property
    def duplicates(self) -> int:
        return self.completed - self.distinct

    @property
    def ratio(self) -> float:
        explored = self.explored
        if not explored:
            return 0.0
        return (explored - self.distinct) / explored

    def absorb(self, record: Dict[str, Any]) -> None:
        """Add a shipped record's replay/branching counts (fingerprints
        do not cross the process boundary; duplicates of records merged
        this way are accounted by the shipping side)."""
        self.replayed += record.get("replayed", 0)
        for factor, count in (record.get("branching") or {}).items():
            self.branch(int(factor), count)

    def as_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "axis": self.axis,
            "explored": self.explored,
            "distinct": self.distinct,
            "duplicates": self.duplicates,
            "replayed": self.replayed,
            "ratio": round(self.ratio, 4),
        }
        if self.branching:
            record["branching"] = {
                str(factor): count
                for factor, count in sorted(self.branching.items())
            }
        return record

    def record(self) -> Dict[str, Any]:
        """Freeze and publish to the profile collector (profiling-gated)."""
        frozen = self.as_dict()
        if _PROF.enabled:
            PROFILER.record_redundancy(frozen)
        return frozen


def merge_redundancy(
    records: Iterable[Optional[Dict[str, Any]]],
) -> Dict[str, Any]:
    """Merge several redundancy records into one aggregate.

    Distinct-state counts are summed (each record's fingerprint universe
    is private to its enumeration — redundancy is measured *within*
    each enumeration, never across), so the merged ratio is the
    work-weighted mean of the parts.
    """
    explored = distinct = duplicates = replayed = 0
    branching: Dict[str, int] = {}
    axes = set()
    merged_any = False
    for record in records:
        if not record:
            continue
        merged_any = True
        axes.add(record.get("axis", "?"))
        explored += record.get("explored", 0)
        distinct += record.get("distinct", 0)
        duplicates += record.get("duplicates", 0)
        replayed += record.get("replayed", 0)
        for factor, count in (record.get("branching") or {}).items():
            branching[factor] = branching.get(factor, 0) + count
    if not merged_any:
        return {}
    out: Dict[str, Any] = {
        "axis": axes.pop() if len(axes) == 1 else "mixed",
        "explored": explored,
        "distinct": distinct,
        "duplicates": duplicates,
        "replayed": replayed,
        "ratio": round((explored - distinct) / explored, 4) if explored else 0.0,
    }
    if branching:
        out["branching"] = {
            factor: branching[factor]
            for factor in sorted(branching, key=lambda f: int(f))
        }
    return out


def obligation_entry(task_profile: Dict[str, Any]) -> Dict[str, Any]:
    """One per-obligation attribution line for ``profile`` provenance.

    Keeps the wall/state totals and the obligation's own redundancy
    *ratio*; the full fingerprint record is aggregated separately into
    the judgment-level ``redundancy`` rollup.
    """
    entry = {k: v for k, v in task_profile.items() if k != "redundancy"}
    redundancy = task_profile.get("redundancy") or {}
    if "ratio" in redundancy:
        entry["ratio"] = redundancy["ratio"]
    return entry


def merge_profile(
    values: Iterable[Optional[Dict[str, Any]]],
) -> Optional[Dict[str, Any]]:
    """Merge ``profile`` blocks and per-obligation profile entries.

    A per-obligation entry (``obligation``/``wall_us``/``states``/
    ``redundancy``, built by a checker for one obligation) contributes
    its redundancy record and one attribution line; a merged block
    contributes its rollup and its lines.
    """
    records: List[Optional[Dict[str, Any]]] = []
    lines: List[Dict[str, Any]] = []
    for value in values:
        if not value:
            continue
        records.append(value.get("redundancy"))
        if "obligation" in value:
            lines.append(obligation_entry(value))
        else:
            lines.extend(value.get("obligations") or ())
    merged: Dict[str, Any] = {}
    redundancy = merge_redundancy(records)
    if redundancy:
        merged["redundancy"] = redundancy
    if lines:
        merged["obligations"] = lines
    return merged or None


def inherited_profile(merged: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """What a composition rule (and the run record) keeps of a merge.

    Only the redundancy rollup propagates, so the root of a derivation
    states the total measured redundancy backing it; per-obligation
    attribution stays on the certificate that measured it.
    """
    redundancy = (merged or {}).get("redundancy")
    return {"redundancy": redundancy} if redundancy else {}


def _redundancy_line(redundancy: Dict[str, Any]) -> str:
    branching = redundancy.get("branching")
    branch_note = (
        " branching=" + ",".join(
            f"{factor}x{count}" for factor, count in branching.items()
        )
        if branching else ""
    )
    return (
        f"redundancy[{redundancy.get('axis', '?')}]: "
        f"ratio={redundancy.get('ratio', 0.0):.1%} "
        f"({redundancy.get('explored', 0)} explored, "
        f"{redundancy.get('distinct', 0)} distinct, "
        f"{redundancy.get('duplicates', 0)} duplicate(s), "
        f"{redundancy.get('replayed', 0)} replayed)"
        f"{branch_note}"
    )


def render_profile(profile: Dict[str, Any]) -> List[str]:
    """The ``profile`` block's lines: the redundancy rollup (the
    measured DPOR / hash-consing headroom), then per-obligation
    explored-state and wall-time attribution."""
    lines: List[str] = []
    redundancy = profile.get("redundancy") or {}
    if redundancy:
        lines.append(_redundancy_line(redundancy))
    obligations = profile.get("obligations") or []
    if obligations:
        lines.append("obligation profile:")
        for entry in obligations:
            wall_us = entry.get("wall_us")
            wall = f"{wall_us / 1e6:.3f}s" if wall_us is not None else "-"
            ratio = entry.get("ratio")
            ratio_txt = f"{ratio:.1%}" if ratio is not None else "-"
            lines.append(
                f"  {entry.get('obligation')}: "
                f"{entry.get('states', 0)} state(s) explored, "
                f"wall {wall}, redundancy {ratio_txt}"
            )
    return lines


def _profile_metrics(profile: Dict[str, Any]) -> Dict[str, float]:
    redundancy = profile.get("redundancy") or {}
    if "ratio" not in redundancy:
        return {}
    return {"redundancy_ratio": float(redundancy["ratio"])}


def render_run_summary(record: Dict[str, Any]) -> List[str]:
    """The lines of a run record's profiler rollup
    (:meth:`ProfileCollector.run_summary`): redundancy per axis."""
    by_axis = record.get("redundancy_by_axis") or {}
    if not by_axis:
        return []
    return ["redundancy by axis:"] + [
        "  " + _redundancy_line(dict(stats, axis=axis))
        for axis, stats in sorted(by_axis.items())
    ]


def obligation_profile(
    provenances: Iterable[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """The first 200 per-obligation attribution lines of the ``profile``
    blocks of ``provenances`` (a run record's ``obligation_profile``)."""
    lines = (
        dict(line)
        for provenance in provenances
        for line in (provenance.get("profile") or {}).get("obligations") or ()
    )
    return list(islice(lines, 200))


def _absorb_redundancy(records: List[Dict[str, Any]]) -> None:
    for record in records:
        PROFILER.record_redundancy(record)


register_block(
    "profile", merge_profile, render_profile,
    inherit=inherited_profile, metrics=_profile_metrics,
)
register_sink(
    "redundancy",
    mark=lambda: PROFILER.redundancy_count() if _PROF.enabled else None,
    since=PROFILER.redundancy_since,
    absorb=_absorb_redundancy,
)


if env_flag(PROFILE_ENV):
    enable_profiling()
