"""Two retired game enumerators, kept as test oracles.

:func:`_explore_prefixes` is the seed prefix-replay DFS, verbatim:
each run replays its decision prefix under a
:class:`~repro.core.machine.ScriptScheduler` and branches over every
ready participant when the script runs out.  It was the enumerator of
``REPRO_REDUCE=off``; :func:`seed_enumerate` drives it serially.

Before branch-point resumption, a sibling run of the reduced DFS was a
*decision script*: the picks of every multi-candidate round up to the
sibling's.  The scheduler was asked at every round, re-decided the
replayed rounds from the script, and rebuilt the sleep sets along the
path.  :class:`ReducingScheduler` and :func:`_explore_reduced` below are
that engine, with only the DPOR axis left.  It decides silence as that
engine did, by comparing an incremental hash chain of the non-sched
events, where the engine now counts the non-sched events a step
appended.  :func:`drive` runs either reduced DFS the way
:func:`repro.core.machine.enumerate_game_logs` runs the engine's (frontier
split at the same depth, subtree tallies contributed to the ambient
collectors, results spliced in serial order); :func:`reference_enumerate`
drives this one.  ``tests/reduce/test_resume.py`` checks that the
resuming engine enumerates exactly what this one does and, with
reduction off, exactly what the seed DFS did.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, List, Optional, Tuple

from repro.core.errors import OutOfFuel
from repro.core.machine import (
    _FRONTIER_DEPTH,
    GameResult,
    GameScheduler,
    NeedChoice,
    ScriptScheduler,
    run_game,
)
from repro.envflags import pinned
from repro.obs.heartbeat import heartbeat
from repro.obs.metrics import inc
from repro.obs.profile import RedundancyBuilder
from repro.obs.trace import obs_enabled
from repro.parallel.pool import parallel_map
from repro.reduce import ReductionStats, contribute
from repro.reduce.dpor import DeferRun, PruneRun


def _explore_prefixes(
    run_one: Callable[[GameScheduler], GameResult],
    max_rounds: int,
    max_runs: int,
    stack: List[Tuple[int, ...]],
    frontier_depth: Optional[int] = None,
    redundancy: Optional[RedundancyBuilder] = None,
) -> Tuple[List[Tuple[Optional[GameResult], Optional[Tuple[int, ...]]]], int, int]:
    """The scheduler-prefix DFS shared by serial and parallel enumeration.

    Returns ``(plan, runs, pruned)``.  Each plan entry is either
    ``(result, None)`` for a completed run or ``(None, prefix)`` for a
    subtree deferred at ``frontier_depth`` — deferred entries sit exactly
    where the subtree's results would appear in serial DFS order (the
    stack discipline explores a branched node's subtree contiguously),
    so splicing worker results at those positions reproduces the serial
    result sequence.  Deferred prefixes are neither run nor counted;
    their runs happen (and are counted) in the worker's sub-DFS.

    ``redundancy`` (profiling) accounts the DFS's replay overhead: every
    run that ends in ``NeedChoice`` re-executed its prefix just to reach
    a new decision point, and the branch there is one decision point
    whose width is the ready-set size.  Completed runs are fingerprinted
    by the caller, which sees the full (spliced) result list.
    """
    plan: List[Tuple[Optional[GameResult], Optional[Tuple[int, ...]]]] = []
    runs = 0
    pruned = 0
    while stack:
        prefix = stack.pop()
        if frontier_depth is not None and len(prefix) >= frontier_depth:
            plan.append((None, prefix))
            continue
        runs += 1
        heartbeat("machine.schedules", explored=runs, budget=max_runs)
        if runs > max_runs:
            raise OutOfFuel(
                f"behaviour enumeration exceeded {max_runs} runs "
                f"(max_rounds={max_rounds})"
            )
        try:
            result = run_one(ScriptScheduler(prefix))
        except NeedChoice as need:
            if redundancy is not None:
                redundancy.visit(replay=True)
            if len(prefix) >= max_rounds:
                pruned += 1
                continue
            if redundancy is not None:
                redundancy.branch(len(need.ready))
            for tid in sorted(need.ready, reverse=True):
                stack.append(prefix + (tid,))
            continue
        plan.append((result, None))
    return plan, runs, pruned


def seed_enumerate(interface, players, max_rounds) -> List[GameResult]:
    """The seed DFS's ``GameResult`` list, in order (serial, unsplit)."""

    def run_one(scheduler):
        return run_game(interface, players, scheduler, max_rounds=max_rounds)

    plan, _runs, _pruned = _explore_prefixes(run_one, max_rounds, 100_000, [()])
    return [result for result, _prefix in plan]


class ReducingScheduler:
    """Scripted scheduler with path extension, dominance and sleep sets.

    Follows ``script`` exactly (the recorded decision prefix), then
    keeps choosing the smallest awake ready participant instead of
    raising ``NeedChoice`` — recording sibling branches in ``branches``
    as ``(depth, siblings)`` pairs, where ``depth`` indexes into
    ``picks``.  Only multi-candidate rounds consume a script entry or
    record a pick; rounds forced by a singleton ready set or by sleep
    are replayed positionally, which is what lets a recorded prefix
    rebuild the very sleep sets that forced them.

    Duck-typed against :class:`repro.core.machine.GameScheduler`; it
    lives here so the reduction engine carries no import of the machine.
    """

    __slots__ = (
        "script", "cursor", "dpor", "stats", "frontier_depth", "redundancy",
        "picks", "branches", "sleep", "_sleep_next", "_pending", "_scanned",
        "_chain",
    )

    def __init__(
        self,
        script: Tuple[int, ...],
        reduce: bool,
        stats: ReductionStats,
        frontier_depth: Optional[int] = None,
        redundancy=None,
    ):
        self.script = tuple(script)
        self.cursor = 0
        self.dpor = reduce
        self.stats = stats
        self.frontier_depth = frontier_depth
        self.redundancy = redundancy
        #: Decision picks made so far (script + extensions).
        self.picks: List[int] = list(script)
        #: Resolved sibling groups: ``(depth, [sibling tids])``.
        self.branches: List[Tuple[int, List[int]]] = []
        #: Participants whose pending step commutes into an explored
        #: subtree; excluded from scheduling until a non-silent step.
        self.sleep: FrozenSet[int] = frozenset()
        #: Sleep set to install if the step just taken stays silent.
        self._sleep_next: Optional[FrozenSet[int]] = None
        #: Unresolved last decision: ``(chosen, siblings, depth, chain)``.
        self._pending: Optional[Tuple[int, List[int], int, int]] = None
        self._scanned = 0
        self._chain = 0

    def pick(self, log, ready: FrozenSet[int]) -> int:
        if obs_enabled():
            # Step-level redundancy: rounds spent re-executing the
            # recorded prefix, which a sibling run already executed.
            inc("machine.schedule_rounds")
            if self.cursor < len(self.script):
                inc("machine.schedule_rounds_replayed")
        events = log.events
        chain = self._chain
        for event in events[self._scanned:]:
            if not event.is_sched():
                chain = hash((chain, event))
        silent = chain == self._chain and self._scanned
        self._chain = chain
        self._scanned = len(events)
        if self.dpor:
            if self._sleep_next is not None:
                self.sleep = self._sleep_next if silent else frozenset()
                self._sleep_next = None
            if self.sleep:
                self.sleep = self.sleep & ready
        self._resolve(ready)
        candidates = sorted(ready - self.sleep) if self.sleep else sorted(ready)
        if not candidates:
            # Every ready participant is asleep: each continuation
            # commutes, transposition by transposition, into a subtree
            # explored under an earlier sibling.
            self.stats.prune("dpor")
            raise PruneRun()
        if self.cursor < len(self.script):
            if len(candidates) == 1:
                # A forced round (singleton ready set, or sleep left one
                # participant awake) recorded no pick, so it consumes no
                # script entry on replay either.
                tid = candidates[0]
                self._sleep_next = self.sleep
            else:
                tid = self.script[self.cursor]
                self.cursor += 1
                if tid not in ready:
                    # Stale decision (participant already finished):
                    # pick deterministically, as ScriptScheduler does.
                    tid = candidates[0]
                else:
                    # Rebuild the sleep set along the recorded path:
                    # siblings explored before ``tid`` go (or stay)
                    # asleep while its step is silent.
                    self._sleep_next = self.sleep | frozenset(
                        t for t in candidates if t < tid
                    )
            return tid
        if self.sleep:
            self.stats.prune("sleep", len(self.sleep))
        if len(candidates) == 1:
            tid = candidates[0]
            self._sleep_next = self.sleep
        else:
            if (
                self.frontier_depth is not None
                and len(self.picks) >= self.frontier_depth
            ):
                raise DeferRun()
            if self.redundancy is not None:
                self.redundancy.branch(len(candidates))
            tid = candidates[0]
            siblings = candidates[1:]
            if self.dpor:
                self._pending = (tid, siblings, len(self.picks), chain)
                self._sleep_next = self.sleep
            else:
                self.branches.append((len(self.picks), siblings))
            self.picks.append(tid)
        return tid

    def _resolve(self, ready: Optional[FrozenSet[int]]) -> None:
        pending = self._pending
        if pending is None:
            return
        self._pending = None
        chosen, siblings, depth, chain_before = pending
        silent = self._chain == chain_before
        still_running = ready is not None and chosen in ready
        if silent and still_running:
            # First-branch dominance: the chosen step touched no shared
            # state, so every sibling schedule commutes into the chosen
            # subtree.  (A finishing step left the ready set, so it is
            # conservatively kept.)
            self.stats.prune("dpor", len(siblings))
        else:
            self.branches.append((depth, siblings))

    def finalize(self) -> None:
        """Resolve the last decision conservatively when the run ends."""
        pending = self._pending
        if pending is not None:
            self._pending = None
            _chosen, siblings, depth, _chain = pending
            self.branches.append((depth, siblings))

    def fresh(self) -> "ReducingScheduler":  # pragma: no cover - protocol
        raise TypeError("ReducingScheduler instances are single-use")


def _explore_reduced(
    run_one: Callable[[ReducingScheduler], GameResult],
    reduce: bool,
    max_rounds: int,
    max_runs: int,
    stack: List[Tuple[int, ...]],
    stats: ReductionStats,
    frontier_depth: Optional[int] = None,
    redundancy: Optional[RedundancyBuilder] = None,
) -> Tuple[List[Tuple[Optional[GameResult], Optional[Tuple[int, ...]]]], int, int]:
    """The reduced DFS: path extension + dominance + sleep sets.

    The :class:`~repro.reduce.dpor.ReducingScheduler` extends each run
    past its decision script instead of raising :class:`NeedChoice`, so
    no prefix is ever replayed; the sibling branches it records are
    pushed shallowest-group-first with each group reverse-sorted, which
    makes the stack pop the deepest node's smallest sibling next —
    depth-first order, every subtree contiguous in ``plan`` (the same
    splice discipline as :func:`_explore_prefixes`).  A run cut by an
    all-asleep sleep set counts as ``pruned`` (its continuation was
    already explored); a run cut at the frontier defers its current
    decision path as a ``(None, prefix)`` plan entry for a worker.
    """
    plan: List[Tuple[Optional[GameResult], Optional[Tuple[int, ...]]]] = []
    runs = 0
    pruned = 0
    while stack:
        prefix = stack.pop()
        runs += 1
        heartbeat("machine.schedules", explored=runs, budget=max_runs)
        if runs > max_runs:
            raise OutOfFuel(
                f"behaviour enumeration exceeded {max_runs} runs "
                f"(max_rounds={max_rounds})"
            )
        scheduler = ReducingScheduler(
            prefix, reduce, stats,
            frontier_depth=frontier_depth, redundancy=redundancy,
        )
        try:
            result = run_one(scheduler)
        except PruneRun:
            # The scheduler already tallied the all-asleep cut.
            pruned += 1
        except DeferRun:
            plan.append((None, tuple(scheduler.picks)))
        else:
            plan.append((result, None))
        scheduler.finalize()
        base = tuple(scheduler.picks)
        for depth, siblings in scheduler.branches:
            stem = base[:depth]
            for tid in sorted(siblings, reverse=True):
                stack.append(stem + (tid,))
    return plan, runs, pruned


def drive(
    explore: Callable,
    root,
    interface,
    players,
    reduce: bool,
    max_rounds: int,
    jobs: int = 1,
) -> Tuple[List[GameResult], int, int]:
    """A reduced enumeration on ``explore``, split at the engine's frontier.

    ``explore`` is a reduced DFS with the signature of
    :func:`_explore_reduced` and ``root`` its root stack entry.  Returns
    ``(results, runs, pruned)``; the reduction tallies reach the ambient
    collectors.
    """
    max_runs = 100_000  # enumerate_game_logs' default

    def run_one(scheduler):
        return run_game(interface, players, scheduler, max_rounds=max_rounds)

    split = (
        _FRONTIER_DEPTH
        if len(players) > 1 and max_rounds > _FRONTIER_DEPTH
        else None
    )
    stats = ReductionStats()
    plan, runs, pruned = explore(
        run_one, reduce, max_rounds, max_runs, [root], stats,
        frontier_depth=split,
    )

    def explore_subtree(entry):
        sub_stats = ReductionStats()
        sub_plan, sub_runs, sub_pruned = explore(
            run_one, reduce, max_rounds, max_runs, [entry], sub_stats,
        )
        contribute(sub_stats)
        return [r for r, _ in sub_plan], sub_runs, sub_pruned

    frontier = [entry for result, entry in plan if result is None]
    with pinned(jobs=jobs):
        subtrees = iter(parallel_map(explore_subtree, frontier))
    results: List[GameResult] = []
    for result, _entry in plan:
        if result is not None:
            results.append(result)
            continue
        sub_results, sub_runs, sub_pruned = next(subtrees)
        results.extend(sub_results)
        runs += sub_runs
        pruned += sub_pruned
    contribute(stats)
    return results, runs, pruned


def reference_enumerate(interface, players, reduce, max_rounds):
    """:func:`drive` on the script-following reference DFS, serially."""
    return drive(_explore_reduced, (), interface, players, reduce, max_rounds)
