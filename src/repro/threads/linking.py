"""Multithreaded linking (paper Theorem 5.1): ``Lbtd[c] ≤_id Lhtd[c][Tc]``.

"When the whole Tc is focused, all scheduling primitives ... never
switch to unfocused ones.  Thus, its scheduling behaviors are equal to
the ones of Lbtd[c]."  The theorem lets properties proved over the
multithreaded abstraction propagate down to the layer with concrete
scheduling implementations.

The executable check enumerates whole-machine games of the same client
program over both interfaces — the implementation-level ``Lbtd``
(scheduling primitives manipulate real queues; queue events visible) and
the atomic ``Lhtd`` (one event per scheduling primitive) — under all
bounded hardware schedules, and requires the behaviours to agree after
erasing the queue traffic.  Scheduling within a CPU is not a source of
nondeterminism (the software scheduler is deterministic given the log);
only the hardware's choice of CPU branches.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.certificate import Certificate, stamp_provenance
from ..core.errors import OutOfFuel
from ..core.events import DEQ, ENQ, SLEEP, WAKEUP, YIELD
from ..core.interface import LayerInterface
from ..core.log import Log
from ..core.machine import GameResult, run_game
from ..obs import obs_enabled, span
from ..obs.coverage import CoverageBuilder
from ..obs.forensics import MAX_COUNTEREXAMPLES, build_counterexample
from ..obs.metrics import MetricsWindow, inc
from ..objects.sched import CpuMap, TEXIT, ThreadGameScheduler

SCHED_EVENTS = {YIELD, SLEEP, WAKEUP, TEXIT}


def exiting(player: Callable) -> Callable:
    """Wrap a thread player so it cedes the CPU when its work is done.

    Kernel threads never return; game players do — the wrapper appends a
    ``thread_exit`` so Rsched stays accurate and the remaining threads
    keep running.
    """

    def wrapped(ctx, *args):
        ret = yield from player(ctx, *args)
        yield from ctx.call(TEXIT)
        return ret

    wrapped.__name__ = f"exiting_{getattr(player, '__name__', 'player')}"
    return wrapped


def sched_projection(log: Log) -> Tuple:
    """The scheduling-event skeleton of a log (queue traffic erased)."""
    return tuple(
        (e.tid, e.name, e.args)
        for e in log
        if e.name in SCHED_EVENTS
    )


def canonical_skeleton(log: Log, cpus: CpuMap) -> Tuple:
    """Per-CPU scheduling skeletons (the interleaving quotient).

    Cross-CPU order of scheduling events is interleaving noise: the two
    layers take their scheduling steps at different granularities (one
    atomic event vs. a run of queue operations), so the same behaviour
    appears under differently-ordered hardware schedules.  What is
    semantically binding is (a) the order of events *within* each CPU and
    (b) the sleep/wakeup pairing, which the ``wakeup`` event's woken-
    thread argument records explicitly.  Logs with equal canonical
    skeletons are permutations of each other's commuting events.
    """
    per_cpu: Dict[int, List[Tuple]] = {cpu: [] for cpu in cpus.cpus}
    for event in log:
        if event.name in SCHED_EVENTS:
            per_cpu[cpus.cpu_of(event.tid)].append(
                (event.tid, event.name, event.args)
            )
    return tuple((cpu, tuple(per_cpu[cpu])) for cpu in sorted(per_cpu))


class ThreadChoiceScheduler(ThreadGameScheduler):
    """Exhaustive-enumeration variant of the thread game scheduler.

    Within a CPU the replayed current thread always runs; the hardware's
    choice *among CPUs* follows an explicit script of thread ids.  When
    the script runs out at a round with more than one runnable CPU, the
    scheduler raises :class:`~repro.core.machine.NeedChoice` so the DFS
    below can branch — exactly the mechanism
    :func:`~repro.core.machine.enumerate_game_logs` uses, restricted to
    the software-scheduler-respecting decision points.
    """

    def __init__(self, cpus, init_current, script: Sequence[int] = (),
                 max_choice_depth: int = 10):
        super().__init__(cpus, init_current, ())
        self.script = tuple(script)
        #: After this many branched decisions the scheduler stops
        #: branching and round-robins among the runnable CPUs — the
        #: recorded coverage bound of the enumeration.
        self.max_choice_depth = max_choice_depth

    def pick(self, log: Log, ready: FrozenSet[int]) -> int:
        from ..core.machine import NeedChoice
        from ..objects.sched import NIL_THREAD, idle_next, replay_sched

        states = replay_sched(log, self.cpus, self.init_current)
        runnable: Dict[int, int] = {}
        for cpu, state in states.items():
            if state.current in ready:
                runnable[cpu] = state.current
            elif state.current == NIL_THREAD:
                candidate = idle_next(state)
                if candidate in ready:
                    runnable[cpu] = candidate
        if not runnable:
            return min(ready)
        candidates = frozenset(runnable.values())
        if len(candidates) == 1:
            return next(iter(candidates))
        if self.cursor < len(self.script):
            wanted = self.script[self.cursor]
            self.cursor += 1
            if wanted in candidates:
                return wanted
            return min(candidates)
        if len(self.script) < self.max_choice_depth:
            raise NeedChoice(candidates)
        # Past the branching bound: deterministic fair round-robin.
        ordered = sorted(candidates)
        self.cursor += 1
        return ordered[self.cursor % len(ordered)]

    def fresh(self) -> "ThreadChoiceScheduler":
        return ThreadChoiceScheduler(
            self.cpus, self.init_current, self.script, self.max_choice_depth
        )


def enumerate_thread_games(
    interface: LayerInterface,
    players: Dict[int, Tuple[Callable, Tuple[Any, ...]]],
    cpus: CpuMap,
    init_current: Dict[int, int],
    fuel: int = 20_000,
    max_rounds: int = 200,
    max_runs: int = 50_000,
    max_choice_depth: int = 10,
    coverage: Optional[CoverageBuilder] = None,
) -> List[GameResult]:
    """Enumerate thread games over bounded hardware schedules.

    DFS over the hardware's CPU-choice sequence (software scheduling
    within a CPU is deterministic given the log, so those rounds do not
    branch); the first ``max_choice_depth`` real decision points branch
    exhaustively, after which the hardware round-robins.  On a
    single-CPU machine this is one deterministic run.

    Each returned result carries the CPU-choice script that produced it
    as ``result.choice_script`` (forensics replays from it).
    ``coverage`` (optional) accumulates the explored choice-script
    counts; when omitted and observability is on, a ``"thread_games"``
    axis record is published to the process-wide coverage registry.
    """
    from ..core.machine import NeedChoice

    own_coverage = coverage is None and obs_enabled()
    if own_coverage:
        coverage = CoverageBuilder(
            "thread_games", budget=max_runs, depth_bound=max_choice_depth
        )
    wrapped = {
        tid: (exiting(player), args) for tid, (player, args) in players.items()
    }
    results: List[GameResult] = []
    seen: Set[Tuple] = set()
    stack: List[Tuple[int, ...]] = [()]
    runs = 0
    with span(
        "enumerate_thread_games",
        interface=interface.name,
        threads=len(players),
        cpus=len(cpus.cpus),
    ):
        while stack:
            script = stack.pop()
            runs += 1
            if runs > max_runs:
                if coverage is not None:
                    coverage.exhausted = False
                raise OutOfFuel(
                    f"thread-game enumeration exceeded {max_runs} runs"
                )
            scheduler = ThreadChoiceScheduler(
                cpus, init_current, script, max_choice_depth
            )
            try:
                result = run_game(
                    interface,
                    wrapped,
                    scheduler,
                    fuel=fuel,
                    max_rounds=max_rounds,
                )
            except NeedChoice as need:
                if len(script) >= max_rounds:
                    if coverage is not None:
                        coverage.prune()
                    continue
                for tid in sorted(need.ready, reverse=True):
                    stack.append(script + (tid,))
                continue
            if coverage is not None:
                coverage.visit(depth=len(script))
            key = (result.log, result.finished, result.stuck)
            if key not in seen:
                seen.add(key)
                result.choice_script = script
                results.append(result)
    if coverage is not None:
        coverage.distinct = (coverage.distinct or 0) + len(results)
        if own_coverage:
            coverage.record()
    if obs_enabled():
        inc("threads.games_explored", runs)
        inc("threads.games_distinct", len(results))
    return results


def check_multithreaded_linking(
    lbtd: LayerInterface,
    lhtd: LayerInterface,
    cpus: CpuMap,
    init_current: Dict[int, int],
    client_families: Sequence[Dict[int, Tuple[Callable, Tuple[Any, ...]]]],
    fuel: int = 20_000,
    max_rounds: int = 400,
    max_choice_depth: int = 10,
    require_completeness: bool = False,
) -> Certificate:
    """Thm 5.1: behaviours over ``Lbtd`` equal behaviours over ``Lhtd``.

    For each client (a map thread → player): every completed game over
    the implementation-level interface must have a matching completed
    game over the atomic interface with the identical scheduling-event
    skeleton, and vice versa (behavioural equality, which is stronger
    than the one-directional ``≤_id`` and is what actually holds when the
    whole thread set is focused).
    """
    started = time.perf_counter()
    window = MetricsWindow()
    cert = Certificate(
        judgment=f"{lbtd.name} ≤_id {lhtd.name}[Tc]",
        rule="MultithreadedLinking",
        bounds={
            "clients": len(client_families),
            "max_rounds": max_rounds,
            "max_choice_depth": max_choice_depth,
        },
    )
    games = {"low": 0, "high": 0}
    track_cov = obs_enabled()
    outputs: List[Dict[str, Any]] = []
    captured = 0

    def thread_rerun(iface, players):
        wrapped = {
            tid: (exiting(p), args) for tid, (p, args) in players.items()
        }

        def rerun(script):
            return run_game(
                iface, wrapped,
                ThreadChoiceScheduler(
                    cpus, init_current, script, max_choice_depth
                ),
                fuel=fuel, max_rounds=max_rounds,
            )

        return rerun

    def capture(obligation, status, run, rerun, still_fails):
        nonlocal captured
        if captured >= MAX_COUNTEREXAMPLES:
            return None
        captured += 1

        def artifacts(script):
            replay = rerun(script)
            return {"log": tuple(replay.log), "status": status}

        counterexample = build_counterexample(
            kind="thread-linking",
            judgment=cert.judgment,
            obligation=obligation,
            status=status,
            schedule=getattr(run, "choice_script", run.schedule),
            still_fails=still_fails,
            artifacts=artifacts,
            schedule_kind="sched_decisions",
            log=tuple(run.log),
        )
        return {"counterexample": counterexample}

    for index, players in enumerate(client_families):
        with span("multithreaded_linking.client", client=index):
            cov_low, cov_high = (
                (
                    CoverageBuilder(
                        "thread_games", depth_bound=max_choice_depth
                    ),
                    CoverageBuilder(
                        "thread_games", depth_bound=max_choice_depth
                    ),
                )
                if track_cov else (None, None)
            )
            low = enumerate_thread_games(
                lbtd, players, cpus, init_current, fuel=fuel,
                max_rounds=max_rounds, max_choice_depth=max_choice_depth,
                coverage=cov_low,
            )
            high = enumerate_thread_games(
                lhtd, players, cpus, init_current, fuel=fuel,
                max_rounds=max_rounds, max_choice_depth=max_choice_depth,
                coverage=cov_high,
            )
            if track_cov:
                outputs.append({"coverage": {"thread_games": cov_low.record()}})
                outputs.append({"coverage": {"thread_games": cov_high.record()}})
        games["low"] += len(low)
        games["high"] += len(high)
        rerun_low = thread_rerun(lbtd, players)
        rerun_high = thread_rerun(lhtd, players)
        # Safety: no run may get *stuck* (divergence — e.g. a sleeping
        # thread that is never woken — is legitimate behaviour and must
        # simply agree across the two layers).
        for name, runs_, rerun in (
            ("implementation", low, rerun_low),
            ("atomic", high, rerun_high),
        ):
            stuck_runs = [r for r in runs_ if r.stuck]
            desc = f"P{index}: no {name} game gets stuck"
            details = "; ".join(r.stuck for r in stuck_runs)[:200]
            evidence = None
            if stuck_runs:
                evidence = capture(
                    desc, stuck_runs[0].stuck, stuck_runs[0], rerun,
                    lambda script, rr=rerun: rr(script).stuck is not None,
                )
            cert.add(desc, not stuck_runs, details, evidence=evidence)
        for completed in (True, False):
            kind = "completed" if completed else "divergent"
            low_skeletons = {
                canonical_skeleton(r.log, cpus)
                for r in low
                if r.stuck is None and r.finished == completed
            }
            high_skeletons = {
                canonical_skeleton(r.log, cpus)
                for r in high
                if r.stuck is None and r.finished == completed
            }
            missing_up = low_skeletons - high_skeletons
            missing_down = high_skeletons - low_skeletons
            # Thm 5.1 proper: Lbtd ≤ Lhtd — every implementation-level
            # behaviour must be witnessed at the atomic level.
            desc = f"P{index}: every {kind} Lbtd behaviour has an Lhtd witness"
            evidence = None
            if missing_up:
                target = sorted(missing_up)[0]
                witness_run = next(
                    (
                        r for r in low
                        if r.stuck is None and r.finished == completed
                        and canonical_skeleton(r.log, cpus) == target
                    ),
                    None,
                )
                if witness_run is not None:
                    def skeleton_unmatched(script, rr=rerun_low,
                                           want_completed=completed,
                                           skeletons=high_skeletons):
                        replay = rr(script)
                        return (
                            replay.stuck is None
                            and replay.finished == want_completed
                            and canonical_skeleton(replay.log, cpus)
                            not in skeletons
                        )

                    evidence = capture(
                        desc,
                        f"no atomic game shares this {kind} skeleton",
                        witness_run, rerun_low, skeleton_unmatched,
                    )
            cert.add(
                desc,
                not missing_up,
                f"unmatched: {sorted(missing_up)[:1]}" if missing_up else "",
                evidence=evidence,
            )
            if require_completeness:
                # The converse (atomic behaviours are implementable) is
                # true but needs deeper low-level coverage: the
                # implementation takes several decision rounds per atomic
                # step, so equal choice depths under-cover it.  Enabled
                # explicitly by tests that size the depths accordingly.
                cert.add(
                    f"P{index}: every {kind} Lhtd behaviour has an Lbtd witness",
                    not missing_down,
                    f"unmatched: {sorted(missing_down)[:1]}" if missing_down else "",
                )
        cert.log_universe = cert.log_universe + tuple(
            r.log for r in low if r.stuck is None
        ) + tuple(r.log for r in high if r.stuck is None)
    stamp_provenance(
        cert, time.perf_counter() - started, window, outputs,
        clients=len(client_families),
        implementation_games=games["low"],
        atomic_games=games["high"],
    )
    return cert
