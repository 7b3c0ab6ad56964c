"""The certified thread scheduler (paper §5.1).

"Based on the shared thread queues provided by the multicore toolkit
(§4.2), we introduce a new layer interface Lbtd[c] that supports
multithreading.  At this layer interface, the transitions between threads
are done using scheduling primitives."

State (per CPU ``c``; queue ids name atomic shared-queue objects):

* ``rdq(c)`` — the private ready queue,
* ``pendq(c)`` — the shared pending queue ("containing the threads woken
  up by other CPUs"),
* ``slpq(i)`` — the shared sleeping queues,
* the current thread of each CPU — replayed from scheduling events by
  ``Rsched`` (:func:`replay_current`), exactly as the paper describes:
  "these events record the thread switches, which can be used to track
  the currently-running thread by a replay function Rsched".

Primitives (events carry the switch target, so the log determines
control):

* ``yield``  — drain ``pendq`` into ``rdq``, switch to the next ready
  thread (requeueing self at the tail); a no-op when nobody is ready.
* ``sleep(i, lk)`` — enqueue self on sleeping queue ``i``, release the
  protecting spinlock ``lk`` (Fig. 11's ``sleep(l)`` runs with the lock
  held — enqueue-then-release is what makes lost wakeups impossible),
  then switch to the next ready thread.
* ``wakeup(i)`` — dequeue one sleeper; append it to the local ready
  queue or to its home CPU's pending queue; returns the woken thread (or
  NIL).

Modelling note (recorded in DESIGN.md): the kernel context switch
(``cswitch``, saving ra/ebp/ebx/esi/edi/esp) is subsumed here by player
suspension — a blocked thread is a paused generator, and
:class:`ThreadGameScheduler` resumes exactly the replayed current thread
of each CPU.  The register-level ``cswitch`` is still implemented and
validated at the assembly layer (:mod:`repro.asm`), where stack merging
(§5.5) needs it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..core.context import QUERY, ExecutionContext
from ..core.errors import Stuck
from ..core.events import DEQ, ENQ, Event, REL, SLEEP, WAKEUP, YIELD

TEXIT = "texit"
"""Thread exit: switch to the next ready thread without requeueing self.

Not in the paper's primitive list (kernel threads do not return), but
whole-machine games need finished players to cede the CPU; the exit
event keeps ``Rsched`` accurate.  A CPU whose every thread has exited
replays to current = NIL_THREAD and goes idle.
"""

NIL_THREAD = 0
from ..core.interface import LayerInterface, Prim, private_prim
from ..core.log import Log
from ..core.machine import GameScheduler
from ..core.replay import ReplayFn
from .local_queue import NIL

# --- queue naming -------------------------------------------------------------


def rdq(cpu: int) -> Tuple[str, int]:
    return ("rdq", cpu)


def pendq(cpu: int) -> Tuple[str, int]:
    return ("pendq", cpu)


def slpq(chan: Any) -> Tuple[str, Any]:
    return ("slpq", chan)


class CpuMap:
    """The static assignment of threads to CPUs (the TCB's CPU field)."""

    def __init__(self, assignment: Dict[int, int]):
        self.assignment = dict(assignment)

    def cpu_of(self, tid: int) -> int:
        if tid not in self.assignment:
            raise Stuck(f"unknown thread {tid}")
        return self.assignment[tid]

    def threads_on(self, cpu: int) -> List[int]:
        return sorted(t for t, c in self.assignment.items() if c == cpu)

    @property
    def cpus(self) -> List[int]:
        return sorted(set(self.assignment.values()))

    def __repr__(self):
        return f"CpuMap({self.assignment})"


# --- Rsched: replaying scheduler state from the log ------------------------------


@dataclass
class SchedState:
    """The abstract scheduler state of one CPU, replayed from the log."""

    current: int
    ready: List[int] = field(default_factory=list)
    pending: List[int] = field(default_factory=list)


def _without(queue: Tuple[int, ...], item: int) -> Tuple[int, ...]:
    """``queue`` minus the first occurrence of ``item`` (if any)."""
    if item not in queue:
        return queue
    i = queue.index(item)
    return queue[:i] + queue[i + 1:]


def _sched_init(cpus: CpuMap, init_current):
    current = dict(init_current)
    # Initially every spawned thread except the running one is ready.
    return tuple(
        (
            current[cpu],
            tuple(t for t in cpus.threads_on(cpu) if t != current[cpu]),
            (),
        )
        for cpu in cpus.cpus
    )


def _sched_step(states, event: Event, cpus: CpuMap, init_current):
    if event.name == WAKEUP and event.args:
        woken = event.args[1]
        if woken == NIL:
            return states
        home = cpus.cpu_of(woken)
        slot = cpus.cpus.index(home)
        current, ready, pending = states[slot]
        if home == cpus.cpu_of(event.tid):
            entry = (current, ready + (woken,), pending)
        else:
            entry = (current, ready, pending + (woken,))
        return states[:slot] + (entry,) + states[slot + 1:]
    if event.name in (YIELD, SLEEP, TEXIT) and event.args:
        slot = cpus.cpus.index(cpus.cpu_of(event.tid))
        _current, ready, pending = states[slot]
        # Drain pending into ready, exactly as the implementation does.
        ready = ready + pending
        target = event.args[1] if event.name == SLEEP else event.args[0]
        if event.name == YIELD and target != event.tid:
            # Self requeued at the tail; target removed from ready.
            ready = _without(ready, target) + (event.tid,)
        else:
            # A no-op yield (nobody ready), an idle pickup (the hardware
            # idle loop handing the CPU to the next runnable thread), a
            # sleep, or an exit (target NIL_THREAD when the CPU idles).
            ready = _without(ready, target)
        return states[:slot] + ((target, ready, ()),) + states[slot + 1:]
    return states


replay_sched_states = ReplayFn("Rsched", _sched_init, _sched_step)
"""``Rsched``'s fold: one ``(current, ready, pending)`` triple per CPU of
``cpus.cpus``, in order.  ``init_current`` is passed as sorted items."""


def replay_sched(
    log: Log, cpus: CpuMap, init_current: Dict[int, int]
) -> Dict[int, SchedState]:
    """``Rsched``: fold scheduling events into per-CPU scheduler states.

    Sleeping-queue contents are replayed separately
    (:func:`replay_slpq`).  Only the *atomic* scheduling events
    (``yield``/``sleep``/``wakeup``) participate: at the scheduler
    overlay the queue manipulations are hidden, and the scheduling events
    alone determine the state — that determinism is what makes the
    overlay a legitimate abstraction.
    """
    states = replay_sched_states(log, cpus, tuple(sorted(init_current.items())))
    return {
        cpu: SchedState(current, list(ready), list(pending))
        for cpu, (current, ready, pending) in zip(cpus.cpus, states)
    }


def replay_current(
    log: Log, cpu: int, cpus: CpuMap, init_current: Dict[int, int]
) -> int:
    return replay_sched(log, cpus, init_current)[cpu].current


def idle_next(state: SchedState) -> int:
    """The thread the idle loop would hand an idle CPU to (NIL if none)."""
    queue = state.ready + state.pending
    return queue[0] if queue else NIL_THREAD


def _slpq_init(chan) -> Tuple[int, ...]:
    return ()


def _slpq_step(sleepers, event: Event, chan):
    if event.name == SLEEP and event.args and event.args[0] == chan:
        return sleepers + (event.tid,)
    if event.name == WAKEUP and event.args and event.args[0] == chan:
        woken = event.args[1]
        if woken != NIL:
            return _without(sleepers, woken)
    return sleepers


replay_sleepers = ReplayFn("Rslpq", _slpq_init, _slpq_step)
"""The sleeping queue of one channel (oldest first) from atomic
scheduling events."""


def replay_slpq(log: Log, chan: Any) -> List[int]:
    """The sleeping queue contents from atomic scheduling events."""
    return list(replay_sleepers(log, chan))


# --- the implementation over the atomic queue (+ lock) layer -----------------------


def make_sched_impls(cpus: CpuMap, init_current: Dict[int, int]):
    """Build the scheduler module's players over the queue layer.

    Returns ``(yield_impl, sleep_impl, wakeup_impl, block_until_current)``.
    The implementations run their queue manipulations in critical state
    (the scheduler lock held through the switch), so the queue events and
    the scheduling event appear atomically in the log.
    """

    def block_until_current(ctx: ExecutionContext):
        cpu = cpus.cpu_of(ctx.tid)
        while True:
            ctx.consume_fuel()
            yield QUERY
            state = replay_sched(ctx.log, cpus, init_current)[cpu]
            if state.current == ctx.tid:
                return
            if state.current == NIL_THREAD and idle_next(state) == ctx.tid:
                # Idle pickup: the CPU's idle loop drains the pending
                # queue and hands control to the next runnable thread —
                # which is us.  At this layer the queue traffic is real.
                ctx.enter_critical()
                yield from drain_pending(ctx)
                nxt = yield from ctx.call(DEQ, rdq(cpu))
                if nxt != ctx.tid:
                    raise Stuck(
                        f"idle pickup raced: expected {ctx.tid}, got {nxt}"
                    )
                ctx.emit(YIELD, ctx.tid)
                ctx.exit_critical()
                return

    def drain_pending(ctx: ExecutionContext):
        cpu = cpus.cpu_of(ctx.tid)
        while True:
            ctx.consume_fuel()
            nid = yield from ctx.call(DEQ, pendq(cpu))
            if nid == NIL:
                return
            yield from ctx.call(ENQ, rdq(cpu), nid)

    def yield_impl(ctx: ExecutionContext):
        cpu = cpus.cpu_of(ctx.tid)
        yield from ctx.query()
        ctx.enter_critical()
        yield from drain_pending(ctx)
        nxt = yield from ctx.call(DEQ, rdq(cpu))
        if nxt == NIL:
            # Nobody else is ready: yield is a no-op (recorded for Rsched).
            ctx.emit(YIELD, ctx.tid)
            ctx.exit_critical()
            return None
        yield from ctx.call(ENQ, rdq(cpu), ctx.tid)
        ctx.emit(YIELD, nxt)
        ctx.exit_critical()
        yield from block_until_current(ctx)
        return None

    def sleep_impl(ctx: ExecutionContext, chan, lock=None):
        cpu = cpus.cpu_of(ctx.tid)
        yield from ctx.query()
        ctx.enter_critical()
        yield from ctx.call(ENQ, slpq(chan), ctx.tid)
        if lock is not None:
            # Fig. 11: sleep(l) is entered with the protecting spinlock
            # held; the scheduler releases it after self-enqueueing, which
            # closes the lost-wakeup window.
            yield from ctx.call(REL, lock)
        yield from drain_pending(ctx)
        nxt = yield from ctx.call(DEQ, rdq(cpu))
        # With no ready thread the CPU goes idle (nxt == NIL); the idle
        # pickup in block_until_current resumes whoever is woken first.
        ctx.emit(SLEEP, chan, nxt if nxt != NIL else NIL_THREAD)
        ctx.exit_critical()
        yield from block_until_current(ctx)
        return None

    def texit_impl(ctx: ExecutionContext):
        cpu = cpus.cpu_of(ctx.tid)
        yield from ctx.query()
        ctx.enter_critical()
        yield from drain_pending(ctx)
        nxt = yield from ctx.call(DEQ, rdq(cpu))
        ctx.emit(TEXIT, nxt if nxt != NIL else NIL_THREAD)
        ctx.exit_critical()
        return None

    def wakeup_impl(ctx: ExecutionContext, chan):
        cpu = cpus.cpu_of(ctx.tid)
        yield from ctx.query()
        ctx.enter_critical()
        nid = yield from ctx.call(DEQ, slpq(chan))
        if nid != NIL:
            home = cpus.cpu_of(nid)
            if home == cpu:
                yield from ctx.call(ENQ, rdq(cpu), nid)
            else:
                yield from ctx.call(ENQ, pendq(home), nid)
        ctx.emit(WAKEUP, chan, nid)
        ctx.exit_critical()
        return nid

    return {
        YIELD: yield_impl,
        SLEEP: sleep_impl,
        WAKEUP: wakeup_impl,
        TEXIT: texit_impl,
        "block": block_until_current,
    }


# --- the atomic overlay (Lhtd-style scheduling primitives) --------------------------


def make_sched_atomic_specs(cpus: CpuMap, init_current: Dict[int, int]):
    """Atomic scheduling primitives: one event per call, queues hidden.

    The specifications compute the switch target from the *replayed*
    abstract scheduler state — the implementation's queue traffic has
    been abstracted away entirely.
    """

    def block(ctx: ExecutionContext):
        cpu = cpus.cpu_of(ctx.tid)
        while True:
            ctx.consume_fuel()
            yield QUERY
            state = replay_sched(ctx.log, cpus, init_current)[cpu]
            if state.current == ctx.tid:
                return
            if state.current == NIL_THREAD and idle_next(state) == ctx.tid:
                # Idle pickup, one atomic event at this layer.
                ctx.emit(YIELD, ctx.tid)
                return

    def yield_spec(ctx: ExecutionContext):
        yield from ctx.query()
        cpu = cpus.cpu_of(ctx.tid)
        state = replay_sched(ctx.log, cpus, init_current)[cpu]
        ready = state.ready + state.pending
        nxt = ready[0] if ready else ctx.tid
        ctx.emit(YIELD, nxt)
        if nxt != ctx.tid:
            yield from block(ctx)
        return None

    def sleep_spec(ctx: ExecutionContext, chan, lock=None):
        yield from ctx.query()
        cpu = cpus.cpu_of(ctx.tid)
        if lock is not None:
            yield from ctx.call(REL, lock)
        state = replay_sched(ctx.log, cpus, init_current)[cpu]
        ready = state.ready + state.pending
        # Idle the CPU when nobody is ready (NIL_THREAD target).
        ctx.emit(SLEEP, chan, ready[0] if ready else NIL_THREAD)
        yield from block(ctx)
        return None

    def wakeup_spec(ctx: ExecutionContext, chan):
        yield from ctx.query()
        sleepers = replay_slpq(ctx.log, chan)
        nid = sleepers[0] if sleepers else NIL
        ctx.emit(WAKEUP, chan, nid)
        return nid

    def texit_spec(ctx: ExecutionContext):
        yield from ctx.query()
        cpu = cpus.cpu_of(ctx.tid)
        state = replay_sched(ctx.log, cpus, init_current)[cpu]
        ready = state.ready + state.pending
        ctx.emit(TEXIT, ready[0] if ready else NIL_THREAD)
        return None

    return {
        YIELD: yield_spec,
        SLEEP: sleep_spec,
        WAKEUP: wakeup_spec,
        TEXIT: texit_spec,
    }


def sched_interface(
    base: LayerInterface,
    cpus: CpuMap,
    init_current: Dict[int, int],
    name: str = "Lhtd",
    hide: Iterable[str] = (),
    atomic: bool = True,
) -> LayerInterface:
    """Extend a layer with scheduling primitives.

    ``atomic=True`` installs the atomic overlay specifications (the
    ``Lhtd[c]`` interface); ``atomic=False`` installs the queue-level
    implementations as primitives (the ``Lbtd[c]`` interface — used to
    run whole-machine games below the abstraction and for the Thm 5.1
    linking check).
    """
    if atomic:
        specs = make_sched_atomic_specs(cpus, init_current)
    else:
        specs = make_sched_impls(cpus, init_current)

    def yield_prim_spec(ctx):
        ret = yield from specs[YIELD](ctx)
        return ret

    def sleep_prim_spec(ctx, chan, lock=None):
        ret = yield from specs[SLEEP](ctx, chan, lock)
        return ret

    def wakeup_prim_spec(ctx, chan):
        ret = yield from specs[WAKEUP](ctx, chan)
        return ret

    def texit_prim_spec(ctx):
        ret = yield from specs[TEXIT](ctx)
        return ret

    prims = [
        Prim(YIELD, yield_prim_spec, cycle_cost=2,
             doc="switch to the next ready thread"),
        Prim(SLEEP, sleep_prim_spec, cycle_cost=2,
             doc="block on a sleeping queue, releasing the given lock"),
        Prim(WAKEUP, wakeup_prim_spec, cycle_cost=2,
             doc="wake one sleeper (to ready or pending queue)"),
        Prim(TEXIT, texit_prim_spec, cycle_cost=2,
             doc="thread exit: cede the CPU without requeueing"),
        private_prim("get_tid", lambda ctx: ctx.tid, doc="current thread id"),
    ]
    return base.extend(name, prims, hide=hide)


# --- the game scheduler respecting Rsched ----------------------------------------------


class ThreadGameScheduler(GameScheduler):
    """A whole-machine scheduler that honours the software scheduler.

    The hardware may pick any CPU at each round (driven by the wrapped
    ``cpu_picker`` decision sequence), but within a CPU only the
    *replayed current thread* may run — resuming a blocked generator
    would violate the machine semantics.  Threads that are finished are
    skipped; if a CPU's current thread is finished the CPU is idle.
    """

    def __init__(
        self,
        cpus: CpuMap,
        init_current: Dict[int, int],
        cpu_script: Sequence[int] = (),
    ):
        self.cpus = cpus
        self.init_current = dict(init_current)
        self.cpu_script = tuple(cpu_script)
        self.cursor = 0

    def pick(self, log: Log, ready: FrozenSet[int]) -> int:
        states = replay_sched(log, self.cpus, self.init_current)
        runnable = {}
        for cpu, state in states.items():
            if state.current in ready:
                runnable[cpu] = state.current
            elif state.current == NIL_THREAD:
                # Idle CPU: resume the next runnable thread so its block
                # loop can perform the idle pickup.
                candidate = idle_next(state)
                if candidate in ready:
                    runnable[cpu] = candidate
        if not runnable:
            # Every current thread has finished: allow any ready thread
            # whose turn could come (deadlocked games end by round bound).
            return min(ready)
        order = sorted(runnable)
        if self.cursor < len(self.cpu_script):
            wanted = self.cpu_script[self.cursor]
            self.cursor += 1
            if wanted in runnable:
                return runnable[wanted]
        # Round-robin over CPUs by round counter.
        cpu = order[self.cursor % len(order)]
        self.cursor += 1
        return runnable[cpu]

    def fresh(self) -> "ThreadGameScheduler":
        return ThreadGameScheduler(self.cpus, self.init_current, self.cpu_script)
