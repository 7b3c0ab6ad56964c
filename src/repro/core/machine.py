"""The abstract layer machine: local runs and whole-machine games.

Two execution modes, mirroring §2 of the paper:

* **Local execution** (:func:`run_local`) — the machine focuses on one
  participant; everything else is an environment context.  "Since the
  environmental executions (including the interleavings) are all
  encapsulated into the environment context, ``L[i]`` is actually a
  sequential-like (or local) interface parameterized over E."

* **Game execution** (:func:`run_game`) — every participant is focused
  and a scheduler strategy "acts as a judge of the game" picking who
  moves at each round.  The behaviour of the whole layer machine
  ``[[·]]_{L[D]}`` is the set of logs generated under all schedulers
  (:func:`enumerate_game_logs` explores that set exhaustively to a
  bounded number of scheduling decisions).

Players suspend only at query points (see :mod:`repro.core.context`), so a
scheduling decision is made exactly when the running player would next
interact with shared state — the paper's observation that instruction and
private-primitive transitions need not be interleaved observably (§3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..envflags import engine_config
from ..obs import obs_enabled, span
from ..obs.coverage import SAMPLED, CoverageBuilder
from ..obs.heartbeat import heartbeat
from ..obs.metrics import inc
from ..obs.profile import RedundancyBuilder, profile_enabled, state_fingerprint
from ..parallel.partition import CHUNKS_PER_WORKER, chunk_evenly
from ..parallel.pool import get_jobs, parallel_map
from ..reduce import ReductionStats, contribute
from ..reduce.dpor import DeferRun, PruneRun, ReducingScheduler, Resume
from .context import QUERY, ExecutionContext
from .environment import EnvContext, NullEnv
from .errors import OutOfFuel, Stuck
from .events import HW_SCHED
from .interface import LayerInterface
from .log import Log, LogBuffer
from .playerstate import (
    UNSTARTED,
    GameState,
    Participant,
    capture_game,
    resumable_entries,
    restore_player,
)


# --- players ---------------------------------------------------------------


def call_player(name: str, *args):
    """A player that makes a single primitive call and returns its result.

    Running a primitive's own specification as a player is how we execute
    a strategy ``φ`` in isolation (the ``LκM_{L[i]}`` of §2).
    """

    def player(ctx):
        ret = yield from ctx.call(name, *args)
        return ret

    player.__name__ = f"call_{name}"
    return player


def seq_player(calls: Sequence[Tuple[str, Tuple[Any, ...]]]):
    """A player performing a fixed sequence of primitive calls.

    This is the shape of the client programs ``P`` in Fig. 3 (``T1(){
    foo(); }``); returns the list of return values.
    """

    def player(ctx):
        rets = ctx.rets = []
        for name, args in calls:
            ret = yield from ctx.call(name, *args)
            rets.append(ret)
        return rets

    player.__name__ = "seq_" + "_".join(name for name, _ in calls)
    # The call list lets a game restore a suspended run of this player
    # (:mod:`repro.core.playerstate`).
    player.__seq_calls__ = calls
    return player


# --- local execution ---------------------------------------------------------


@dataclass
class LocalRun:
    """Outcome of a local run: final log, return value, status."""

    log: Log
    ret: Any
    finished: bool
    stuck: Optional[str]
    cycles: int
    queries: int
    guar_ok: bool
    ctx: ExecutionContext

    @property
    def ok(self) -> bool:
        return self.finished and self.stuck is None and self.guar_ok


def run_local(
    interface: LayerInterface,
    tid: int,
    player: Callable,
    args: Tuple[Any, ...] = (),
    env: Optional[EnvContext] = None,
    fuel: int = 10_000,
    init_log: Optional[Iterable] = None,
    priv: Optional[Dict[str, Any]] = None,
    check_guar: bool = True,
) -> LocalRun:
    """Run one player over ``interface[tid]`` under an environment context.

    The guarantee condition of the interface is checked on the log at
    every query point and on the final log of a finished run; a
    violation does not abort the run but is reported through
    ``guar_ok`` (verifiers turn it into a failure).  Every snapshot
    shares the buffer's replay checkpoints, so each check folds only
    the events appended since the previous one.
    """
    env = env if env is not None else NullEnv()
    buffer = LogBuffer(interface.init_log if init_log is None else init_log)
    base_priv = interface.init_priv(tid)
    if priv:
        base_priv.update(priv)
    ctx = ExecutionContext(interface, tid, buffer, fuel=fuel, priv=base_priv)
    gen = player(ctx, *args)

    guar = interface.guar.condition(tid)
    queries = 0
    guar_ok = True
    ret: Any = None
    finished = False
    stuck: Optional[str] = None
    try:
        while True:
            try:
                marker = next(gen)
            except StopIteration as stop:
                ret = stop.value
                finished = True
                break
            if marker is not QUERY:  # pragma: no cover - protocol violation
                raise Stuck(f"player yielded non-query value {marker!r}")
            if check_guar and guar_ok:
                guar_ok = guar.holds(buffer.snapshot())
            queries += 1
            ctx.queries = queries
            ctx.consume_fuel()
            env.advance(buffer, tid, ctx)
    except Stuck as err:
        stuck = err.reason
    if check_guar and guar_ok and finished:
        guar_ok = guar.holds(buffer.snapshot())
    if obs_enabled():
        inc("machine.local_runs")
        inc("machine.local_queries", queries)
        if stuck is not None:
            inc("machine.local_runs_stuck")
    return LocalRun(
        log=buffer.snapshot(),
        ret=ret,
        finished=finished,
        stuck=stuck,
        cycles=ctx.cycles,
        queries=queries,
        guar_ok=guar_ok,
        ctx=ctx,
    )


# --- game execution -----------------------------------------------------------


class NeedChoice(Exception):
    """Raised internally when a scripted scheduler runs out of decisions."""

    def __init__(self, ready: FrozenSet[int]):
        super().__init__(f"scheduling decision needed among {sorted(ready)}")
        self.ready = ready


class GameScheduler:
    """A scheduler strategy for whole-machine games (the paper's φ0).

    A scheduler that resumes a recorded run (the reducing scheduler of
    :mod:`repro.reduce.dpor`) also carries ``history``, the tids of the
    rounds before the branch round, and ``diverged(log, round,
    reason)``, which raises :class:`~repro.core.errors.ReplayDivergence`
    when a replay cannot follow that record.  Its ``restore`` is the
    branch point whose player ``state`` :func:`run_game` installs, or
    None, in which case the game replays the ``history`` rounds before
    the first :meth:`pick`.  Its ``capture`` slot is set by the game to
    a function returning the players' state, when the players are ones
    :mod:`repro.core.playerstate` can capture.
    """

    def pick(self, log: Log, ready: FrozenSet[int]) -> int:
        raise NotImplementedError

    def fresh(self) -> "GameScheduler":
        raise NotImplementedError


class RoundRobinScheduler(GameScheduler):
    """Cycle fairly through a fixed participant order."""

    def __init__(self, order: Sequence[int]):
        self.order = list(order)
        self.cursor = 0

    def pick(self, log: Log, ready: FrozenSet[int]) -> int:
        for _ in range(len(self.order)):
            tid = self.order[self.cursor % len(self.order)]
            self.cursor += 1
            if tid in ready:
                return tid
        return min(ready)

    def fresh(self) -> "RoundRobinScheduler":
        return RoundRobinScheduler(self.order)


class ScriptScheduler(GameScheduler):
    """Follow an explicit decision sequence, as a forensic rerun does.

    When the script is exhausted: if only one participant is ready it is
    chosen silently (no real decision exists), otherwise
    :class:`NeedChoice` reports the ready set: the script is too short
    to denote a complete run.  Not counted in
    ``machine.schedule_rounds``: those rounds measure enumeration work.
    """

    def __init__(self, script: Sequence[int]):
        self.script = tuple(script)
        self.cursor = 0

    def pick(self, log: Log, ready: FrozenSet[int]) -> int:
        if self.cursor < len(self.script):
            tid = self.script[self.cursor]
            self.cursor += 1
            if tid not in ready:
                # A stale decision (participant already finished): treat
                # as picking among the ready set deterministically.
                return min(ready)
            return tid
        if len(ready) == 1:
            return next(iter(ready))
        raise NeedChoice(frozenset(ready))

    def fresh(self) -> "ScriptScheduler":
        return ScriptScheduler(self.script)


@dataclass
class GameResult:
    """Outcome of a whole-machine game run."""

    log: Log
    rets: Dict[int, Any]
    finished: bool
    stuck: Optional[str]
    cycles: Dict[int, int]
    rounds: int
    schedule: Tuple[int, ...]

    @property
    def ok(self) -> bool:
        return self.finished and self.stuck is None


def run_game(
    interface: LayerInterface,
    players: Dict[int, Tuple[Callable, Tuple[Any, ...]]],
    scheduler: GameScheduler,
    fuel: int = 10_000,
    max_rounds: int = 1_000,
    init_log: Optional[Iterable] = None,
    record_sched: bool = True,
    fine_grained: bool = False,
) -> GameResult:
    """Play the game: all of ``players`` focused, ``scheduler`` judging.

    Each round the scheduler picks an unfinished participant, a hardware
    scheduling event is recorded if control changes (the ``Mx86``
    convention, §3.1), and that participant runs to its next query point.
    With ``fine_grained`` every primitive call is a scheduling point —
    the hardware machine ``Mx86`` of §3.1, where program transitions and
    hardware scheduling "are arbitrarily and nondeterministically
    interleaved".
    """
    # A resumed run starts at its branch round from the recorded player
    # state when its branch point has one, and otherwise replays the
    # recorded rounds without consulting the scheduler.  Either way the
    # scheduler checks the log and ready set at its first pick.
    history: Tuple[int, ...] = getattr(scheduler, "history", ())
    replayed = len(history)
    point = getattr(scheduler, "restore", None)
    state: Optional[GameState] = point.state if point is not None else None
    if state is None:
        buffer = LogBuffer(interface.init_log if init_log is None else init_log)
    else:
        buffer = LogBuffer.restored(point.events, state.memo)
    ctxs: Dict[int, ExecutionContext] = {}
    gens: Dict[int, Any] = {}
    for tid, (player, args) in players.items():
        part = UNSTARTED if state is None else state.players[tid]
        # A restored participant's private state comes from its record.
        ctx = ExecutionContext(
            interface, tid, buffer, fuel=fuel,
            priv=interface.init_priv(tid) if part is UNSTARTED else None,
        )
        ctx.fine_grained = fine_grained
        ctxs[tid] = ctx
        if part is UNSTARTED:
            gens[tid] = player(ctx, *args)
        else:
            gen = restore_player(ctx, player.__seq_calls__, part)
            if gen is not None:
                gens[tid] = gen

    ready = frozenset(gens)
    rets: Dict[int, Any] = {}
    stuck: Optional[str] = None
    schedule: List[int] = []
    current: Optional[int] = None
    rounds = 0
    if state is not None:
        rets.update(state.rets)
        current = state.current
        schedule.extend(history)
        rounds = replayed
        if obs_enabled():
            inc("machine.schedule_rounds_restored", replayed + 1)
    # Each participant's last capture, dropped when it runs again.
    saved: Optional[Dict[int, Participant]] = None
    if hasattr(scheduler, "capture"):
        entries = (
            resumable_entries(interface, players, fine_grained)
            if state is None else state.entries
        )
        if entries is not None:
            saved = dict(state.players) if state is not None else {}
            scheduler.capture = lambda: capture_game(
                ctxs, entries, saved, rets, current, buffer
            )

    try:
        while ready and rounds < max_rounds:
            if rounds < replayed:
                tid = history[rounds]
                if tid not in ready:
                    scheduler.diverged(
                        buffer.snapshot(), rounds,
                        f"recorded participant {tid} is not ready "
                        f"(ready: {sorted(ready)})",
                    )
            else:
                tid = scheduler.pick(buffer.snapshot(), ready)
            rounds += 1
            schedule.append(tid)
            if saved is not None:
                saved.pop(tid, None)
            if record_sched and tid != current:
                buffer.emit(tid, HW_SCHED)
            current = tid
            try:
                marker = next(gens[tid])
            except StopIteration as stop:
                rets[tid] = stop.value
                ready = ready - {tid}
                continue
            if marker is not QUERY:  # pragma: no cover - protocol violation
                raise Stuck(f"player {tid} yielded non-query {marker!r}")
    except NeedChoice:
        raise
    except Stuck as err:
        stuck = err.reason
    if replayed and rounds <= replayed:
        # The replay got stuck, or ran out of ready players, before it
        # reached its branch round.
        if stuck is not None:
            scheduler.diverged(
                buffer.snapshot(), rounds - 1,
                f"the replayed step got stuck: {stuck}",
            )
        scheduler.diverged(buffer.snapshot(), rounds, "no participant is ready")

    if obs_enabled():
        inc("machine.game_runs")
        inc("machine.game_rounds", rounds)
        if stuck is not None:
            inc("machine.game_runs_stuck")
    return GameResult(
        log=buffer.snapshot(),
        rets=rets,
        finished=not ready and stuck is None,
        stuck=stuck,
        cycles={tid: ctx.cycles for tid, ctx in ctxs.items()},
        rounds=rounds,
        schedule=tuple(schedule),
    )


#: Prefix length at which scheduler-tree exploration hands subtrees to
#: workers.  Depth 2 yields at most |participants|² frontier tasks —
#: enough to saturate a pool without fragmenting the tree.
_FRONTIER_DEPTH = 2


def _explore_reduced(
    run_one: Callable[[ReducingScheduler], GameResult],
    reduce: bool,
    max_rounds: int,
    max_runs: int,
    stack: List[Resume],
    stats: ReductionStats,
    frontier_depth: Optional[int] = None,
    redundancy: Optional[RedundancyBuilder] = None,
) -> Tuple[List[Tuple[Optional[GameResult], Resume]], int, int]:
    """The game DFS: path extension, resumption and, with ``reduce``, DPOR.

    The :class:`~repro.reduce.dpor.ReducingScheduler` extends each run
    past its branch round and records every multi-candidate round it
    passes as a :class:`~repro.reduce.dpor.BranchPoint`.  Each stack
    entry is ``(branch point, sibling)`` (``None`` for the root run):
    the sibling's run replays the recorded rounds without deciding them
    and makes its first decision at the branch round, so a prefix is
    re-executed by the players but never re-decided.  The sibling groups
    are pushed shallowest-group-first with each group reverse-sorted,
    which makes the stack pop the deepest node's smallest sibling next —
    depth-first order, every subtree contiguous in ``plan``, so splicing
    a deferred subtree's results at its entry reproduces the serial
    result order.  A run cut by an all-asleep sleep set counts as
    ``pruned`` (its continuation was already explored); a run cut at the
    frontier defers its last pick, as a ``(None, (point, pick))`` plan
    entry, for a worker to resume exactly as a sibling is resumed.
    Without ``reduce`` nothing is cut: every ready participant is
    branched on, and the plan is the exhaustive enumeration.

    Cut runs are *not* reported to ``redundancy`` as replays: the
    redundancy ratio deliberately keeps measuring the residual
    duplicates among the completed runs (the headroom reduction has not
    yet removed), while the cuts land in ``stats`` (see DESIGN.md).
    """
    plan: List[Tuple[Optional[GameResult], Resume]] = []
    runs = 0
    pruned = 0
    while stack:
        entry = stack.pop()
        runs += 1
        heartbeat("machine.schedules", explored=runs, budget=max_runs)
        if runs > max_runs:
            raise OutOfFuel(
                f"behaviour enumeration exceeded {max_runs} runs "
                f"(max_rounds={max_rounds})"
            )
        scheduler = ReducingScheduler(
            entry, reduce, stats,
            frontier_depth=frontier_depth, redundancy=redundancy,
        )
        try:
            result = run_one(scheduler)
        except PruneRun:
            # The scheduler already tallied the all-asleep cut.
            pruned += 1
        except DeferRun:
            plan.append((None, scheduler.last))
        else:
            plan.append((result, None))
        scheduler.finalize()
        for point, siblings in scheduler.branches:
            for tid in sorted(siblings, reverse=True):
                stack.append((point, tid))
    return plan, runs, pruned


def enumerate_game_logs(
    interface: LayerInterface,
    players: Dict[int, Tuple[Callable, Tuple[Any, ...]]],
    fuel: int = 10_000,
    max_rounds: int = 64,
    max_runs: int = 100_000,
    init_log: Optional[Iterable] = None,
    fine_grained: bool = False,
    coverage: Optional[CoverageBuilder] = None,
    redundancy: Optional[RedundancyBuilder] = None,
) -> List[GameResult]:
    """Exhaustively enumerate game outcomes over all schedulers.

    One DFS (:func:`_explore_reduced`), with DPOR while the pinned
    engine configuration's ``reduce`` is on: each run extends past its
    last decision and records its branch points, and each sibling
    resumes at its recorded branch point.  With reduction off every
    ready participant is branched on.  The result is the bounded
    behaviour set ``[[P]]_{L[D]}`` — "the set of logs generated by
    playing the game under all possible schedulers" (§2).

    ``coverage`` (optional) accumulates the explored schedule-prefix
    counts and depth histogram; when omitted and observability is on, a
    fresh ``"machine.schedules"`` axis record is published to the
    process-wide coverage registry so every behaviour enumeration shows
    up in the run's coverage map.

    With two or more participants the tree is split at a fixed frontier
    depth: the parent explores shallow decisions; subtrees rooted at the
    frontier are explored inline or, with more than one worker
    (``REPRO_JOBS``), in worker processes, and their results spliced
    back at the positions serial DFS would have produced them.  The
    split is the same for every worker count, so the result list, run
    count, reduction tallies and an eventual :class:`OutOfFuel` are too.
    """
    own_coverage = coverage is None and obs_enabled()
    if own_coverage:
        coverage = CoverageBuilder(
            "machine.schedules", budget=max_runs, depth_bound=max_rounds
        )
    own_redundancy = False
    if redundancy is None and profile_enabled():
        redundancy = RedundancyBuilder("machine.schedules")
        own_redundancy = True

    def run_one(scheduler: GameScheduler) -> GameResult:
        return run_game(
            interface,
            players,
            scheduler,
            fuel=fuel,
            max_rounds=max_rounds,
            init_log=init_log,
            fine_grained=fine_grained,
        )

    reduce = engine_config().reduce
    stats = ReductionStats()
    # Enumeration always routes through the frontier-split code path (a
    # 1-job parallel_map is a plain inline loop), so the subtree
    # partitioning is identical serially and under REPRO_JOBS.
    split = (
        _FRONTIER_DEPTH
        if len(players) > 1 and max_rounds > _FRONTIER_DEPTH
        else None
    )
    results: List[GameResult] = []
    with span(
        "enumerate_game_logs",
        interface=interface.name,
        participants=len(players),
        fine_grained=fine_grained,
    ):
        try:
            plan, runs, pruned = _explore_reduced(
                run_one, reduce, max_rounds, max_runs, [None], stats,
                frontier_depth=split, redundancy=redundancy,
            )
            if split is not None:
                # A deferred subtree is a (branch point, pick) resume entry.
                frontier = [entry for result, entry in plan if result is None]

                def explore_subtrees(entries):
                    out = []
                    for entry in entries:
                        sub_red = (
                            RedundancyBuilder("machine.schedules")
                            if profile_enabled() else None
                        )
                        # Subtree tallies go straight to the open
                        # tally scopes (a pool sink in workers).
                        sub_stats = ReductionStats()
                        sub_plan, sub_runs, sub_pruned = _explore_reduced(
                            run_one, reduce, max_rounds, max_runs, [entry],
                            sub_stats, redundancy=sub_red,
                        )
                        contribute(sub_stats)
                        out.append((
                            [r for r, _ in sub_plan],
                            sub_runs,
                            sub_pruned,
                            sub_red.as_dict() if sub_red else None,
                        ))
                    return out

                chunks = chunk_evenly(frontier, get_jobs() * CHUNKS_PER_WORKER)
                subtree_outputs = [
                    entry
                    for chunk_out in parallel_map(explore_subtrees, chunks)
                    for entry in chunk_out
                ]
                cursor = 0
                for result, _entry in plan:
                    if result is not None:
                        results.append(result)
                    else:
                        (sub_results, sub_runs, sub_pruned,
                         sub_red_record) = subtree_outputs[cursor]
                        cursor += 1
                        results.extend(r for r in sub_results if r is not None)
                        runs += sub_runs
                        pruned += sub_pruned
                        if redundancy is not None and sub_red_record:
                            redundancy.absorb(sub_red_record)
                if runs > max_runs:
                    raise OutOfFuel(
                        f"behaviour enumeration exceeded {max_runs} runs "
                        f"(max_rounds={max_rounds})"
                    )
            else:
                results = [result for result, _entry in plan]
        except OutOfFuel:
            if coverage is not None:
                coverage.exhausted = False
            raise
        if coverage is not None:
            for result in results:
                coverage.visit(depth=len(result.schedule))
            if pruned:
                coverage.prune(pruned)
    if coverage is not None:
        coverage.distinct = (coverage.distinct or 0) + len(results)
        if own_coverage:
            coverage.record()
    if redundancy is not None:
        # Completed runs are fingerprinted here, over the final (spliced)
        # result list, so fingerprint universes never cross the process
        # boundary: replay-equivalence is judged exactly as a serial
        # enumeration would judge it.
        for result in results:
            redundancy.visit(
                state_fingerprint(
                    result.log.without_sched(),
                    repr(sorted(result.rets.items())),
                    result.finished,
                    result.stuck,
                )
            )
        if own_redundancy:
            redundancy.record()
    # Surface the tallies to whichever checker opened a scope
    # (check_soundness attaches them to certificate provenance as the
    # ``reduction`` block; an empty tally contributes nothing).
    contribute(stats)
    if obs_enabled():
        inc("machine.schedules_explored", runs)
        inc("machine.interleavings", len(results))
    return results


def sample_game_logs(
    interface: LayerInterface,
    players: Dict[int, Tuple[Callable, Tuple[Any, ...]]],
    schedulers: Iterable[GameScheduler],
    fuel: int = 10_000,
    max_rounds: int = 1_000,
    init_log: Optional[Iterable] = None,
    fine_grained: bool = False,
    coverage: Optional[CoverageBuilder] = None,
) -> List[GameResult]:
    """Behaviours under an explicit scheduler family (non-exhaustive).

    For scenarios too large for :func:`enumerate_game_logs`, a family of
    fair / round-robin / seeded-random schedulers still gives broad
    interleaving coverage; the certificate records that coverage was
    sampled, not exhaustive (the coverage axis is published in
    ``"sampled"`` mode, never ``exhausted``).
    """
    own_coverage = coverage is None and obs_enabled()
    if own_coverage:
        coverage = CoverageBuilder(
            "machine.schedules", depth_bound=max_rounds, mode=SAMPLED
        )
    results = []
    with span(
        "sample_game_logs",
        interface=interface.name,
        participants=len(players),
    ):
        for scheduler in schedulers:
            result = run_game(
                interface,
                players,
                scheduler.fresh(),
                fuel=fuel,
                max_rounds=max_rounds,
                init_log=init_log,
                fine_grained=fine_grained,
            )
            if coverage is not None:
                coverage.visit(depth=len(result.schedule))
            results.append(result)
    if coverage is not None:
        coverage.exhausted = False
        coverage.distinct = (coverage.distinct or 0) + len(
            {r.log for r in results}
        )
        if own_coverage:
            coverage.record()
    inc("machine.schedules_sampled", len(results))
    return results


def behavior_logs(results: Iterable[GameResult], drop_sched: bool = True) -> Set[Log]:
    """The behaviour set: final logs of completed runs (deduplicated)."""
    logs: Set[Log] = set()
    for result in results:
        if not result.ok:
            continue
        logs.add(result.log.without_sched() if drop_sched else result.log)
    return logs
