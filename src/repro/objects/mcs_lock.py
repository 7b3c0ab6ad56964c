"""The certified MCS lock (paper §6, Table 2; Kim et al. APLAS'17).

The MCS list-based queue lock [Mellor-Crummey & Scott 1991] is the second
lock the paper certifies; crucially it implements *the same* atomic
interface ``L_lock`` as the ticket lock: "Both ticket and MCS locks share
the same high-level atomic specifications (or strategies) ... Thus the
lock implementations can be freely interchanged without affecting any
proof in the higher-level modules using locks" (§6).

Representation: per lock ``b``,

* ``tail(b)`` — an atomic cell holding the queue tail: 0 for nil, or
  ``tid + 1`` for the node of participant ``tid``;
* ``next(b, t)`` — participant ``t``'s successor pointer (same encoding);
* ``busy(b, t)`` — participant ``t``'s spin flag (1 = must wait).

Acquire swaps itself into the tail; if there was a predecessor it links
behind it and spins on its own ``busy`` flag.  Release either CASes the
tail back to nil (no successor) or hands the lock to the successor by
clearing its ``busy`` flag.  ``pull``/``push`` of the protected data mark
the critical-section boundaries exactly as for the ticket lock, so the
log-lift relation has the same shape: ``acq ↦ pull``, ``rel ↦ push``,
MCS machinery erased.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.context import ExecutionContext
from ..core.errors import Stuck
from ..core.events import ACQ, Event, PULL, PUSH, REL, freeze, thaw
from ..core.interface import LayerInterface, Prim, SHARED
from ..core.log import Log
from ..core.machint import IntWidth
from ..core.relation import EventMapRel
from ..core.rely_guarantee import Guarantee, LogInvariant, Rely, all_of
from ..core.replay import ReplayFn, replay_shared
from ..machine.atomics import ALOAD, ASTORE, CAS, SWAP, replay_atomic
from ..machine.sharedmem import local_copy
from .ticket_lock import (
    acq_atomic_spec,
    atomic_env_alphabet,
    lock_atomic_interface,
    rel_atomic_spec,
    replay_consistent_inv,
)

NIL = 0


def tail_cell(lock: Any) -> Tuple[str, Any]:
    return ("mcs_tail", lock)


def next_cell(lock: Any, tid: int) -> Tuple[str, Any, int]:
    return ("mcs_next", lock, tid)


def busy_cell(lock: Any, tid: int) -> Tuple[str, Any, int]:
    return ("mcs_busy", lock, tid)


def node_id(tid: int) -> int:
    """Encode a participant's queue node as a non-nil integer."""
    return tid + 1


def node_tid(nid: int) -> int:
    return nid - 1


# --- replay: the MCS queue from the log --------------------------------------


def _mcs_init(lock) -> Tuple[int, ...]:
    return ()


def _mcs_step(queue, event: Event, lock):
    if event.name == SWAP and event.args and event.args[0] == tail_cell(lock):
        return queue + (event.tid,)
    if event.name == CAS and event.args and event.args[0] == tail_cell(lock):
        _, old, new = event.args
        if new == NIL and queue == (event.tid,) and old == node_id(event.tid):
            return ()
        return queue
    if _is_handoff(event, lock) and queue and queue[0] == event.tid:
        # The holder hands off to its successor.
        return queue[1:]
    return queue


def _is_handoff(event: Event, lock: Any) -> bool:
    """``event`` clears some participant's busy flag of ``lock``."""
    return (
        event.name == ASTORE
        and event.args
        and isinstance(event.args[0], tuple)
        and event.args[0][:1] == ("mcs_busy",)
        and event.args[0][1] == lock
        and len(event.args) > 1
        and event.args[1] == 0
    )


replay_mcs = ReplayFn("Rmcs", _mcs_init, _mcs_step)
"""``Rmcs``: the MCS queue (head first) from ``swap``/``cas``/hand-off
events."""


def replay_mcs_queue(log: Log, lock: Any) -> List[int]:
    """The FIFO queue of participants waiting on / holding ``lock``.

    Folds ``swap``/``cas``/hand-off events: joining the queue is the
    ``swap`` on the tail; leaving is either a successful tail CAS back to
    nil or the predecessor clearing our ``busy`` flag.  The head of the
    returned list is the current MCS owner.
    """
    return list(replay_mcs(log, lock))


# --- M_mcs: the implementation (players over Lx86) -----------------------------


def mcs_acq_impl(ctx: ExecutionContext, lock):
    """MCS acquire: join the queue, spin on the private busy flag, pull."""
    me = node_id(ctx.tid)
    yield from ctx.call(ASTORE, next_cell(lock, ctx.tid), NIL)
    yield from ctx.call(ASTORE, busy_cell(lock, ctx.tid), 1)
    pred = yield from ctx.call(SWAP, tail_cell(lock), me)
    if pred != NIL:
        yield from ctx.call(ASTORE, next_cell(lock, node_tid(pred)), me)
        while True:
            ctx.consume_fuel()
            busy = yield from ctx.call(ALOAD, busy_cell(lock, ctx.tid))
            if busy == 0:
                break
    yield from ctx.call(PULL, lock)
    return None


def mcs_rel_impl(ctx: ExecutionContext, lock):
    """MCS release: push, then hand off (or CAS the tail back to nil)."""
    me = node_id(ctx.tid)
    yield from ctx.call(PUSH, lock)
    nxt = yield from ctx.call(ALOAD, next_cell(lock, ctx.tid))
    if nxt == NIL:
        done = yield from ctx.call(CAS, tail_cell(lock), me, NIL)
        if done:
            return None
        while True:
            ctx.consume_fuel()
            nxt = yield from ctx.call(ALOAD, next_cell(lock, ctx.tid))
            if nxt != NIL:
                break
    yield from ctx.call(ASTORE, busy_cell(lock, node_tid(nxt)), 0)
    return None


def mcs_lock_unit():
    """The mini-C source of the MCS lock."""
    from ..clight.ast import (
        Binop,
        Break,
        Call,
        CFunction,
        Const,
        If,
        Return,
        Seq,
        TranslationUnit,
        Tup,
        Var,
        While,
        eq,
        ne,
    )

    tail = Tup([Const("mcs_tail"), Var("b")])

    def nxt(owner):
        return Tup([Const("mcs_next"), Var("b"), owner])

    def busy(owner):
        return Tup([Const("mcs_busy"), Var("b"), owner])

    acq = CFunction(
        "acq",
        ["b"],
        Seq(
            [
                Call(Var("me"), "get_nid", []),
                Call(Var("mytid"), "get_tid", []),
                Call(None, ASTORE, [nxt(Var("mytid")), Const(NIL)]),
                Call(None, ASTORE, [busy(Var("mytid")), Const(1)]),
                Call(Var("pred"), SWAP, [tail, Var("me")]),
                If(
                    ne(Var("pred"), Const(NIL)),
                    Seq(
                        [
                            # pred - 1 decodes the node id back to a tid.
                            Call(
                                None,
                                ASTORE,
                                [
                                    nxt(Binop("-", Var("pred"), Const(1))),
                                    Var("me"),
                                ],
                            ),
                            While(
                                Const(1),
                                Seq(
                                    [
                                        Call(Var("w"), ALOAD, [busy(Var("mytid"))]),
                                        If(eq(Var("w"), Const(0)), Break()),
                                    ]
                                ),
                            ),
                        ]
                    ),
                ),
                Call(None, PULL, [Var("b")]),
            ]
        ),
        doc="MCS lock acquire",
    )
    rel = CFunction(
        "rel",
        ["b"],
        Seq(
            [
                Call(Var("me"), "get_nid", []),
                Call(Var("mytid"), "get_tid", []),
                Call(None, PUSH, [Var("b")]),
                Call(Var("nxt"), ALOAD, [nxt(Var("mytid"))]),
                If(
                    eq(Var("nxt"), Const(NIL)),
                    Seq(
                        [
                            Call(Var("done"), CAS, [tail, Var("me"), Const(NIL)]),
                            If(ne(Var("done"), Const(0)), Return()),
                            While(
                                Const(1),
                                Seq(
                                    [
                                        Call(Var("nxt"), ALOAD, [nxt(Var("mytid"))]),
                                        If(ne(Var("nxt"), Const(NIL)), Break()),
                                    ]
                                ),
                            ),
                        ]
                    ),
                ),
                Call(
                    None,
                    ASTORE,
                    [busy(Binop("-", Var("nxt"), Const(1))), Const(0)],
                ),
            ]
        ),
        doc="MCS lock release",
    )
    unit = TranslationUnit("mcs_lock")
    unit.add(acq)
    unit.add(rel)
    return unit


def tid_prims() -> Tuple[Prim, ...]:
    """Private primitives exposing the participant's id and node id.

    Kernel code obtains the current CPU/thread id through a private
    primitive (``CurID`` in Fig. 1); the MCS code needs both the id and
    its node encoding.
    """
    from ..core.interface import private_prim

    return (
        private_prim("get_tid", lambda ctx: ctx.tid, doc="current participant id"),
        private_prim("get_nid", lambda ctx: node_id(ctx.tid), doc="own MCS node id"),
    )


# --- low-level strategies (φ'_acq / φ'_rel for MCS) ---------------------------


def mcs_acq_low_spec(ctx: ExecutionContext, lock):
    """The fun-lift strategy: identical event structure to the C code."""
    me = node_id(ctx.tid)
    yield from ctx.query()
    ctx.emit(ASTORE, next_cell(lock, ctx.tid), NIL)
    yield from ctx.query()
    ctx.emit(ASTORE, busy_cell(lock, ctx.tid), 1)
    yield from ctx.query()
    pred = replay_atomic(ctx.log, tail_cell(lock))
    ctx.emit(SWAP, tail_cell(lock), me, ret=pred)
    if pred != NIL:
        yield from ctx.query()
        ctx.emit(ASTORE, next_cell(lock, node_tid(pred)), me)
        while True:
            ctx.consume_fuel()
            yield from ctx.query()
            busy = replay_atomic(ctx.log, busy_cell(lock, ctx.tid))
            ctx.emit(ALOAD, busy_cell(lock, ctx.tid), ret=busy)
            if busy == 0:
                break
    yield from ctx.query()
    cell = replay_shared(ctx.log, lock)
    if not cell.status.is_free:
        raise Stuck(f"φ'_mcs_acq: pull({lock}) while {cell.status}")
    ctx.emit(PULL, lock)
    local_copy(ctx)[lock] = None if cell.value == ("vundef",) else thaw(cell.value)
    return None


def mcs_rel_low_spec(ctx: ExecutionContext, lock):
    me = node_id(ctx.tid)
    copies = local_copy(ctx)
    if lock not in copies:
        raise Stuck(f"φ'_mcs_rel: rel({lock}) without a pulled copy")
    cell = replay_shared(ctx.log, lock)
    if cell.status.owner != ctx.tid:
        raise Stuck(f"φ'_mcs_rel: push({lock}) while {cell.status}")
    ctx.emit(PUSH, lock, freeze(copies.pop(lock)))
    ctx.exit_critical()
    yield from ctx.query()
    nxt = replay_atomic(ctx.log, next_cell(lock, ctx.tid))
    ctx.emit(ALOAD, next_cell(lock, ctx.tid), ret=nxt)
    if nxt == NIL:
        yield from ctx.query()
        tail = replay_atomic(ctx.log, tail_cell(lock))
        done = tail == me
        ctx.emit(CAS, tail_cell(lock), me, NIL, ret=done)
        if done:
            return None
        while True:
            ctx.consume_fuel()
            yield from ctx.query()
            nxt = replay_atomic(ctx.log, next_cell(lock, ctx.tid))
            ctx.emit(ALOAD, next_cell(lock, ctx.tid), ret=nxt)
            if nxt != NIL:
                break
    yield from ctx.query()
    ctx.emit(ASTORE, busy_cell(lock, node_tid(nxt)), 0)
    return None


def mcs_low_interface(
    base: LayerInterface,
    name: str = "L_mcs_low",
    hide: Iterable[str] = (),
) -> LayerInterface:
    return base.extend(
        name,
        [
            Prim(ACQ, mcs_acq_low_spec, kind=SHARED,
                 enters_critical=True, cycle_cost=0,
                 doc="φ'_acq: MCS acquire (low-level strategy)"),
            Prim(REL, mcs_rel_low_spec, kind=SHARED, cycle_cost=0,
                 doc="φ'_rel: MCS release (low-level strategy)"),
        ],
        hide=hide,
    )


# --- log-lift relation ----------------------------------------------------------


def mcs_relation() -> EventMapRel:
    """``R_mcs``: ``acq ↦ pull``, ``rel ↦ push``, MCS machinery erased.

    Concretization expands an environment's atomic round trip into a full
    quiescent-state MCS trace (join empty queue, enter, leave by tail
    CAS); witness batches are delivered at quiescent points only, where
    this trace is replay-consistent.
    """

    def conc_acq(event: Event) -> Tuple[Event, ...]:
        lock = event.args[0]
        tid = event.tid
        return (
            Event(tid, ASTORE, (next_cell(lock, tid), NIL)),
            Event(tid, ASTORE, (busy_cell(lock, tid), 1)),
            Event(tid, SWAP, (tail_cell(lock), node_id(tid))),
            Event(tid, PULL, (lock,)),
        )

    def conc_rel(event: Event) -> Tuple[Event, ...]:
        lock = event.args[0]
        tid = event.tid
        value = event.args[1] if len(event.args) > 1 else ("vundef",)
        return (
            Event(tid, PUSH, (lock, value)),
            Event(tid, CAS, (tail_cell(lock), node_id(tid), NIL)),
        )

    def map_acq(event: Event) -> Tuple[Event, ...]:
        return (Event(event.tid, PULL, (event.args[0],), None),)

    def map_rel(event: Event) -> Tuple[Event, ...]:
        lock = event.args[0]
        value = event.args[1] if len(event.args) > 1 else ("vundef",)
        return (Event(event.tid, PUSH, (lock, value), None),)

    return EventMapRel(
        "R_mcs",
        mapping={ACQ: map_acq, REL: map_rel},
        erase={SWAP, CAS, ALOAD, ASTORE},
        concretize={ACQ: conc_acq, REL: conc_rel},
    )


# --- rely ---------------------------------------------------------------------


def _mcs_protocol_step(queue, event: Event, lock):
    if event.name == SWAP and event.args and event.args[0] == tail_cell(lock):
        return queue + (event.tid,)
    if event.name == CAS and event.args and event.args[0] == tail_cell(lock):
        _, old, new = event.args
        if new == NIL:
            if old != node_id(event.tid):
                raise Stuck(f"{event.tid} cleared the tail of {lock} for another node")
            if queue == (event.tid,):
                return ()
            # A failed CAS (queue longer) is legal.
        return queue
    if _is_handoff(event, lock):
        if not queue or queue[0] != event.tid:
            raise Stuck(f"{event.tid} handed off {lock} without holding it")
        return queue[1:]
    if event.name == PULL and event.args and event.args[0] == lock:
        if not queue or queue[0] != event.tid:
            raise Stuck(f"{event.tid} pulled {lock} before its turn")
    return queue


mcs_protocol = ReplayFn("mcs_protocol", _mcs_init, _mcs_protocol_step)
"""The MCS discipline's fold: the queue (head first), raising
:class:`Stuck` at the first event that breaks the discipline."""


def mcs_protocol_inv(locks: Sequence[Any]) -> LogInvariant:
    """The MCS queue discipline as a log invariant.

    ``pull`` is only legal for the queue head; tail CAS to nil only for a
    sole holder; busy hand-off only from the head to its successor.
    """
    return all_of(
        f"mcs_protocol{list(locks)}",
        (
            LogInvariant(f"mcs_protocol[{lock!r}]", mcs_protocol, (lock,))
            for lock in locks
        ),
    )


def mcs_rely(
    domain: Iterable[int],
    locks: Sequence[Any],
    release_bound: int = 6,
    fairness_bound: int = 8,
) -> Rely:
    inv = replay_consistent_inv(locks) & mcs_protocol_inv(locks)
    return Rely(
        {tid: inv for tid in domain},
        fairness_bound=fairness_bound,
        release_bound=release_bound,
    )


def mcs_guarantee(domain: Iterable[int], locks: Sequence[Any]) -> Guarantee:
    inv = replay_consistent_inv(locks) & mcs_protocol_inv(locks)
    return Guarantee({tid: inv for tid in domain})


def low_mcs_env_alphabet(
    env_tids: Iterable[int],
    locks: Sequence[Any],
    values: Sequence[Any] = (("env", 0),),
) -> List[Tuple[Event, ...]]:
    """Low-level environment batches: quiescent full MCS round trips."""
    batches: List[Tuple[Event, ...]] = [()]
    for tid in env_tids:
        for lock in locks:
            for value in values:
                batches.append(
                    (
                        Event(tid, ASTORE, (next_cell(lock, tid), NIL)),
                        Event(tid, ASTORE, (busy_cell(lock, tid), 1)),
                        Event(tid, SWAP, (tail_cell(lock), node_id(tid))),
                        Event(tid, PULL, (lock,)),
                        Event(tid, PUSH, (lock, freeze(value))),
                        Event(tid, CAS, (tail_cell(lock), node_id(tid), NIL)),
                    )
                )
    return batches


# --- the full derivation ----------------------------------------------------------


def certify_mcs_lock(
    domain: Sequence[int],
    lock: Any = "L",
    env_depth: int = 2,
    fuel: int = 3_000,
    focused: Optional[Sequence[int]] = None,
    use_c_source: bool = True,
):
    """Fig. 5 for the MCS lock: same shape, same atomic overlay.

    Returns a :class:`~repro.objects.ticket_lock.CertifiedLockStack`.
    """
    from ..clight.semantics import c_func_impl
    from ..core.calculus import interface_sim_rule, module_rule, pcomp_all, weaken
    from ..core.module import FuncImpl, Module
    from ..core.relation import ID_REL
    from ..core.simulation import SimConfig
    from ..machine.cpu_local import lx86_interface
    from .ticket_lock import CertifiedLockStack, lock_scenarios

    focused = list(focused if focused is not None else domain)
    rely = mcs_rely(domain, [lock])
    guar = mcs_guarantee(domain, [lock])
    base = lx86_interface(domain, rely=rely, guar=guar, extra_prims=tid_prims())
    low = mcs_low_interface(base)
    atomic = lock_atomic_interface(
        base,
        hide=["fai", "aload", "astore", "cas", "swap", "pull", "push",
              "get_tid", "get_nid"],
    )

    if use_c_source:
        unit = mcs_lock_unit()
        module = Module(
            {
                ACQ: c_func_impl(unit, ACQ),
                REL: c_func_impl(unit, REL),
            },
            name="M_mcs",
        )
    else:
        module = Module(
            {
                ACQ: FuncImpl(ACQ, mcs_acq_impl, lang="spec"),
                REL: FuncImpl(REL, mcs_rel_impl, lang="spec"),
            },
            name="M_mcs",
        )

    relation = mcs_relation()
    fun_lift: Dict[int, Any] = {}
    log_lift: Dict[int, Any] = {}
    layer: Dict[int, Any] = {}
    for tid in focused:
        env_tids = [t for t in domain if t != tid]
        low_cfg = SimConfig(
            env_alphabet=low_mcs_env_alphabet(env_tids, [lock]),
            env_depth=env_depth,
            fuel=fuel,
            delivery="per_query",
        )
        at_cfg = SimConfig(
            env_alphabet=atomic_env_alphabet(env_tids, [lock]),
            env_depth=env_depth,
            fuel=fuel,
        )
        fun_lift[tid] = module_rule(
            base, module, low, ID_REL, tid, lock_scenarios(lock, low_cfg)
        )
        log_lift[tid] = interface_sim_rule(
            low, atomic, relation, tid, lock_scenarios(lock, at_cfg)
        )
        layer[tid] = weaken(fun_lift[tid], post=log_lift[tid])

    composed = layer[focused[0]]
    if len(focused) > 1:
        composed = pcomp_all([layer[tid] for tid in focused])

    return CertifiedLockStack(
        base=base,
        low=low,
        atomic=atomic,
        module=module,
        fun_lift=fun_lift,
        log_lift=log_lift,
        layer=layer,
        composed=composed,
    )
