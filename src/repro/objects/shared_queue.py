"""The certified shared queue object (paper §4.2).

"To implement the atomic queue object, we simply wrap the local queue
operations with lock acquire and release statements."  The module built
here sits on top of the *atomic* lock interface ``L_lock`` — exactly the
layering the paper advertises: no lock implementation detail (tickets,
MCS nodes) is visible, and either certified lock slots underneath.

* **Implementation** (mini-C, over ``L_lock`` + the local queue body)::

      uint deQ(uint q) {              void enQ(uint q, uint nid) {
          acq(q);                         acq(q);
          q_alloc(q);                     q_alloc(q);
          uint r = deQ_t(q);              enQ_t(q, nid);
          rel(q);                         rel(q);
          return r;                   }
      }

* **Atomic overlay** ``L_q_high``: one ``deQ(q) ↓ r`` / ``enQ(q, nid)``
  event per call; the queue contents are replayed from those events
  (:func:`replay_shared_queue`).

* **Relation** :class:`QueueRel` — the paper's ``Rlock`` for queues:
  "merges two queue-related lock events (c.acq and c.rel) into a single
  event c.deQ at the higher layer."  The relation is *stateful*: the
  expected release value for each high-level event depends on the queue
  contents at that point, so relating walks both logs in step and
  compares through the representation abstraction
  (:func:`~repro.objects.local_queue.linked_to_list`); concretization of
  environment events computes the released value from the low-level log
  at delivery time.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.context import ExecutionContext
from ..core.errors import Stuck
from ..core.events import ACQ, DEQ, ENQ, Event, PULL, PUSH, REL, freeze, thaw
from ..core.interface import LayerInterface, Prim, private_prim
from ..core.log import Log
from ..core.relation import SimRel
from ..core.replay import ReplayFn
from ..core.rely_guarantee import Guarantee, LogInvariant, Rely, all_of
from ..machine.sharedmem import local_copy
from .local_queue import NIL, linked_deq, linked_enq, linked_to_list, new_queue
from .ticket_lock import replay_lock

DEFAULT_CAPACITY = 8


# --- replay of the atomic queue interface ---------------------------------------


def _queue_init(queue) -> Tuple[int, ...]:
    return ()


def _queue_step(contents, event: Event, queue):
    if event.name == ENQ and event.args and event.args[0] == queue:
        return contents + (event.args[1],)
    if event.name == DEQ and event.args and event.args[0] == queue:
        if contents:
            if event.ret is not None and event.ret != contents[0]:
                raise Stuck(f"forged log: {event} but head was {contents[0]}")
            return contents[1:]
        if event.ret not in (None, NIL):
            raise Stuck(f"forged log: {event} on empty queue")
    return contents


replay_queue = ReplayFn("Rqueue", _queue_init, _queue_step)
"""``Rqueue``: the queue contents (oldest first) from ``enQ``/``deQ``
events; raises :class:`Stuck` on a ``deQ`` whose return value is not the
head."""


def replay_shared_queue(log: Log, queue: Any) -> List[int]:
    """The queue contents from ``enQ``/``deQ`` events (the high layer)."""
    return list(replay_queue(log, queue))


# --- the implementation over L_lock ------------------------------------------------


def q_alloc_prim(capacity: int = DEFAULT_CAPACITY) -> Prim:
    """Private primitive: materialize an empty queue on first acquisition.

    The first ``acq`` of a block pulls ``vundef``; the kernel's static
    initialization is modelled by allocating the empty structure inside
    the first critical section.
    """

    def alloc(ctx: ExecutionContext, queue):
        copies = local_copy(ctx)
        if queue not in copies:
            raise Stuck(f"q_alloc({queue}) outside the critical section")
        if copies[queue] is None:
            copies[queue] = new_queue(capacity)
        return None

    return private_prim("q_alloc", alloc, doc="initialize queue storage once")


def deq_impl(ctx: ExecutionContext, queue):
    """``deQ``: acq; deQ_t on the pulled copy; rel (Python twin)."""
    yield from ctx.call(ACQ, queue)
    yield from ctx.call("q_alloc", queue)
    value = local_copy(ctx)[queue]
    nid = linked_deq(value)
    yield from ctx.call(REL, queue)
    return nid


def enq_impl(ctx: ExecutionContext, queue, nid):
    """``enQ``: acq; enQ_t on the pulled copy; rel (Python twin)."""
    yield from ctx.call(ACQ, queue)
    yield from ctx.call("q_alloc", queue)
    value = local_copy(ctx)[queue]
    linked_enq(value, nid)
    yield from ctx.call(REL, queue)
    return None


def shared_queue_unit():
    """The mini-C source: lock-wrapped queue operations.

    Reuses the local queue body (:mod:`repro.objects.local_queue`)
    operating on the pulled shared block — the Table 2 reuse story.
    """
    from ..clight.ast import (
        Call,
        CFunction,
        Return,
        Seq,
        Shared as SharedExpr,
        TranslationUnit,
        Var,
    )
    from .local_queue import queue_functions

    unit = TranslationUnit("shared_queue")
    for fn in queue_functions(lambda: SharedExpr(Var("q"))):
        unit.add(fn)
    unit.add(
        CFunction(
            "deQ",
            ["q"],
            Seq(
                [
                    Call(None, ACQ, [Var("q")]),
                    Call(None, "q_alloc", [Var("q")]),
                    Call(Var("r"), "deQ_t", [Var("q")]),
                    Call(None, REL, [Var("q")]),
                    Return(Var("r")),
                ]
            ),
            doc="atomic dequeue: lock-wrapped deQ_t (§4.2)",
        )
    )
    unit.add(
        CFunction(
            "enQ",
            ["q", "nid"],
            Seq(
                [
                    Call(None, ACQ, [Var("q")]),
                    Call(None, "q_alloc", [Var("q")]),
                    Call(None, "enQ_t", [Var("q"), Var("nid")]),
                    Call(None, REL, [Var("q")]),
                ]
            ),
            doc="atomic enqueue: lock-wrapped enQ_t (§4.2)",
        )
    )
    return unit


# --- the atomic overlay --------------------------------------------------------------


def deq_atomic_spec(ctx: ExecutionContext, queue):
    """``φ_deQ``: one atomic event, return value from the replayed queue."""
    yield from ctx.query()
    contents = replay_shared_queue(ctx.log, queue)
    nid = contents[0] if contents else NIL
    ctx.emit(DEQ, queue, ret=nid)
    return nid


def enq_atomic_spec(ctx: ExecutionContext, queue, nid):
    """``φ_enQ``: one atomic event.

    Precondition (kernel invariant): a node id is in at most one queue
    position — TCBs link through in-object prev/next fields, so double
    enqueue corrupts the pool.  The specification is partial there.
    """
    yield from ctx.query()
    if nid in replay_shared_queue(ctx.log, queue):
        raise Stuck(f"enQ({queue}, {nid}): node already enqueued")
    ctx.emit(ENQ, queue, nid)
    return None


def queue_atomic_interface(
    base: LayerInterface,
    name: str = "L_q_high",
    hide: Iterable[str] = (),
) -> LayerInterface:
    """The atomic shared-queue interface (overlay of the log-lift)."""
    return base.extend(
        name,
        [
            Prim(DEQ, deq_atomic_spec, kind="atomic", cycle_cost=0,
                 doc="atomic dequeue"),
            Prim(ENQ, enq_atomic_spec, kind="atomic", cycle_cost=0,
                 doc="atomic enqueue"),
        ],
        hide=hide,
    )


# --- the stateful relation ---------------------------------------------------------


class QueueRel(SimRel):
    """``R_q``: merge ``acq``/``rel`` around a queue op into one event.

    Relating is stateful: walking the high log maintains the abstract
    queue; each ``enQ``/``deQ`` event must correspond to a low-level
    ``acq(q)``-``rel(q, v)`` pair whose released value ``v`` abstracts
    (via :func:`linked_to_list`) to the updated queue.  Events unrelated
    to the queues pass through unchanged.
    """

    def __init__(self, queues: Sequence[Any], name: str = "R_q"):
        self.name = name
        self.queues = set(queues)

    # -- relating ------------------------------------------------------------

    def relate_logs(self, log_low: Log, log_high: Log) -> bool:
        try:
            expected = self._expected_sync_points(log_high)
            actual = self._actual_sync_points(log_low)
        except (Stuck, ValueError):
            return False
        return expected == actual

    def _expected_sync_points(self, log_high: Log) -> List[Tuple]:
        state: Dict[Any, List[int]] = {q: [] for q in self.queues}
        points: List[Tuple] = []
        for event in log_high:
            if event.is_sched():
                continue
            if event.name == ENQ and event.args and event.args[0] in self.queues:
                queue = event.args[0]
                state[queue] = state[queue] + [event.args[1]]
                points.append((event.tid, queue, tuple(state[queue])))
            elif event.name == DEQ and event.args and event.args[0] in self.queues:
                queue = event.args[0]
                if state[queue]:
                    state[queue] = state[queue][1:]
                points.append((event.tid, queue, tuple(state[queue])))
            else:
                points.append(("passthrough", event))
        return points

    def _actual_sync_points(self, log_low: Log) -> List[Tuple]:
        points: List[Tuple] = []
        pending: Dict[Tuple[int, Any], bool] = {}
        for event in log_low:
            if event.is_sched():
                continue
            if event.name == ACQ and event.args and event.args[0] in self.queues:
                pending[(event.tid, event.args[0])] = True
            elif event.name == REL and event.args and event.args[0] in self.queues:
                queue = event.args[0]
                if not pending.pop((event.tid, queue), None):
                    raise Stuck(f"{event} without matching acq")
                value = thaw(event.args[1]) if len(event.args) > 1 else None
                abstract = (
                    tuple(linked_to_list(value)) if value is not None else ()
                )
                points.append((event.tid, queue, abstract))
            else:
                points.append(("passthrough", event))
        return points

    # -- concretization (log-aware) ----------------------------------------------

    def concretize_batch(self, batch, log: Log):
        """Lower environment queue events against the current low log."""
        out: List[Event] = []
        # Track values released *within this batch* so consecutive env
        # events see each other's effects.
        staged: Dict[Any, Any] = {}
        for event in batch:
            if event.name in (ENQ, DEQ) and event.args and event.args[0] in self.queues:
                queue = event.args[0]
                if queue in staged:
                    value = staged[queue]
                else:
                    raw = replay_lock(log, queue)[0]
                    value = (
                        new_queue(DEFAULT_CAPACITY)
                        if raw == ("vundef",)
                        else thaw(raw)
                    )
                    if value is None:
                        value = new_queue(DEFAULT_CAPACITY)
                if event.name == ENQ:
                    linked_enq(value, event.args[1])
                else:
                    linked_deq(value)
                staged[queue] = value
                out.append(Event(event.tid, ACQ, (queue,)))
                out.append(Event(event.tid, REL, (queue, freeze(value))))
            else:
                out.append(event)
        return tuple(out)

    def relate_ret(self, ret_low: Any, ret_high: Any) -> bool:
        return ret_low == ret_high


# --- rely / alphabets ------------------------------------------------------------------


def _wellformed_step(contents, event: Event, queue):
    if (
        event.name == ENQ and event.args and event.args[0] == queue
        and event.args[1] in contents
    ):
        raise Stuck(f"{event} enqueues a node already in {queue}")
    return _queue_step(contents, event, queue)


queue_wellformed = ReplayFn("queue_wellformed", _queue_init, _wellformed_step)
"""``Rqueue`` that also gets stuck on an ``enQ`` of a node already in
the queue."""


def _distinct(contents: Tuple[int, ...]) -> bool:
    return len(contents) == len(set(contents))


def queue_wellformed_inv(queues: Sequence[Any]) -> LogInvariant:
    """Rely: queue events keep every node in at most one position.

    Environment behaviours that double-enqueue a node (or forge a dequeue
    return) make the high-level replay stuck and are excluded from the
    valid environment contexts.  The verdict also requires the final
    contents to be distinct.
    """
    return all_of(
        f"queue_wellformed{list(queues)}",
        (
            LogInvariant(
                f"queue_wellformed[{queue!r}]", queue_wellformed, (queue,),
                verdict=_distinct,
            )
            for queue in queues
        ),
    )


def queue_env_alphabet(
    env_tids: Iterable[int],
    queues: Sequence[Any],
    nids: Sequence[int] = (7,),
) -> List[Tuple[Event, ...]]:
    """High-level environment batches: atomic enQ/deQ by other CPUs.

    Environment node ids should be disjoint from the ids the checked
    scenarios use (a node lives in one queue position at a time).
    """
    batches: List[Tuple[Event, ...]] = [()]
    for tid in env_tids:
        for queue in queues:
            batches.append((Event(tid, DEQ, (queue,)),))
            for nid in nids:
                batches.append((Event(tid, ENQ, (queue, nid)),))
    return batches


def queue_scenarios(queue: Any, config, nid: int = 1) -> List:
    """Protocol scenarios for the shared-queue module."""
    from ..core.simulation import Scenario

    return [
        Scenario("deq_empty", [(DEQ, (queue,))], config),
        Scenario("enq", [(ENQ, (queue, nid))], config),
        Scenario("enq_deq", [(ENQ, (queue, nid)), (DEQ, (queue,))], config),
        Scenario(
            "enq_enq_deq_deq",
            [
                (ENQ, (queue, nid)),
                (ENQ, (queue, nid + 1)),
                (DEQ, (queue,)),
                (DEQ, (queue,)),
            ],
            config,
        ),
    ]


def certify_shared_queue(
    domain: Sequence[int],
    queue: Any = "rdq",
    env_depth: int = 2,
    fuel: int = 4_000,
    focused: Optional[Sequence[int]] = None,
    use_c_source: bool = True,
    capacity: int = DEFAULT_CAPACITY,
):
    """Certify the shared queue over the atomic lock interface.

    Builds: ``L_lock`` (+ ``q_alloc``) ⊢ ``M_q`` : ``L_q_high`` by the
    generalized ``Fun`` rule, per focused participant, then ``Pcomp``.
    The underlay is the *atomic* lock layer — the output of
    :func:`~repro.objects.ticket_lock.certify_ticket_lock` — so the full
    stack composes by ``Vcomp``.
    """
    from ..clight.semantics import c_func_impl
    from ..core.calculus import module_rule, pcomp_all
    from ..core.module import FuncImpl, Module
    from ..core.simulation import SimConfig
    from ..machine.cpu_local import lx86_interface
    from .ticket_lock import (
        lock_atomic_interface,
        lock_guarantee,
        lock_rely,
        replay_consistent_inv,
    )

    focused = list(focused if focused is not None else domain)
    rely = lock_rely(domain, [queue])
    guar = lock_guarantee(domain, [queue])
    base = lx86_interface(domain, rely=rely, guar=guar)
    lock_layer = lock_atomic_interface(
        base,
        name="L_lock+q",
        hide=["fai", "aload", "astore", "cas", "swap", "pull", "push"],
    ).extend("L_lock+q", [q_alloc_prim(capacity)])
    overlay = queue_atomic_interface(lock_layer, hide=[ACQ, REL, "q_alloc"])
    wellformed = queue_wellformed_inv([queue])
    overlay = overlay.with_rely(
        Rely(
            {tid: rely.condition(tid) & wellformed for tid in domain},
            fairness_bound=rely.fairness_bound,
            release_bound=rely.release_bound,
        )
    )

    if use_c_source:
        unit = shared_queue_unit()
        module = Module(
            {
                DEQ: c_func_impl(unit, DEQ),
                ENQ: c_func_impl(unit, ENQ),
            },
            name="M_q",
        )
    else:
        module = Module(
            {
                DEQ: FuncImpl(DEQ, deq_impl, lang="spec"),
                ENQ: FuncImpl(ENQ, enq_impl, lang="spec"),
            },
            name="M_q",
        )

    relation = QueueRel([queue])
    layers: Dict[int, Any] = {}
    for tid in focused:
        env_tids = [t for t in domain if t != tid]
        config = SimConfig(
            env_alphabet=queue_env_alphabet(env_tids, [queue]),
            env_depth=env_depth,
            fuel=fuel,
        )
        layers[tid] = module_rule(
            lock_layer,
            module,
            overlay,
            relation,
            tid,
            queue_scenarios(queue, config),
        )

    composed = layers[focused[0]]
    if len(focused) > 1:
        composed = pcomp_all([layers[tid] for tid in focused])
    return {
        "base": base,
        "lock_layer": lock_layer,
        "overlay": overlay,
        "module": module,
        "layers": layers,
        "composed": composed,
        "relation": relation,
    }
