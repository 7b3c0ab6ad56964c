"""The certified ticket lock (paper §2, §4.1, Fig. 3, Fig. 10).

The stack built here is the paper's running example:

* **Bottom** — ``Lx86[c]``: atomic cells (``fai``/``aload``) for the two
  lock fields ``t`` (next ticket) and ``n`` (now serving), plus
  ``pull``/``push`` for the protected shared data.

* **Implementation** ``M1`` (Fig. 10)::

      void acq(uint b) {            void rel(uint b) {
          uint myt = ▷FAI_t(b);         push(b);
          while (▷get_n(b) != myt);     ▷inc_n(b);
          ▷pull(b);                 }
      }

* **Fun-lift** to ``L_lock_low[c]`` — the low-level strategies
  ``φ'_acq``/``φ'_rel`` with the same event structure (relation ``id``).

* **Log-lift** to ``L_lock[c]`` — the atomic interface: one ``acq(b)``
  event (entering critical state) and one ``rel(b, v)`` event.  The
  simulation relation maps ``acq ↦ pull`` and ``rel ↦ push`` (ownership
  transfer is the linearization point) and erases the ticket machinery
  (``fai``/``aload``); its concretization produces the full low-level
  witness traces so environment behaviours stay replay-consistent.

Overflow: the ticket fields wrap at the machine width.  Mutual exclusion
survives because "as long as the total number of CPUs in the machine is
less than 2^32, the mutual exclusion property will not be violated even
with overflows" (§4.1) — :func:`replay_ticket` tracks both the unbounded
specification counters and their wrapped machine values, and the
property tests in ``tests/objects`` drive the width down until wraparound
actually happens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.context import ExecutionContext
from ..core.errors import Stuck
from ..core.events import ACQ, Event, PULL, PUSH, REL, freeze, thaw
from ..core.interface import LayerInterface, Prim, SHARED, shared_prim
from ..core.log import Log
from ..core.machint import UINT32, IntWidth
from ..core.relation import EventMapRel
from ..core.rely_guarantee import Guarantee, LogInvariant, Rely, all_of
from ..core.replay import ReplayFn, replay_shared
from ..machine.atomics import ALOAD, FAI, replay_atomic
from ..machine.sharedmem import local_copy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..clight.ast import TranslationUnit

# --- lock field cells -------------------------------------------------------


def t_cell(lock: Any) -> Tuple[str, Any]:
    """The atomic cell holding the lock's next-ticket counter ``t``."""
    return ("ticket_t", lock)


def n_cell(lock: Any) -> Tuple[str, Any]:
    """The atomic cell holding the lock's now-serving counter ``n``."""
    return ("ticket_n", lock)


# --- replay functions --------------------------------------------------------


@dataclass(frozen=True)
class TicketState:
    """Replayed ticket-lock state: unbounded and wrapped counters.

    ``now_serving``/``next_ticket`` are the unbounded specification
    counters; ``now_wrapped``/``next_wrapped`` their machine-width
    images.  ``holder`` is the participant currently inside the critical
    section (determined by ownership of the protected location).
    """

    now_serving: int
    next_ticket: int
    now_wrapped: int
    next_wrapped: int

    @property
    def free(self) -> bool:
        return self.now_serving == self.next_ticket


def _ticket_init(lock) -> Tuple[int, int]:
    return (0, 0)


def _ticket_step(state, event: Event, lock):
    if event.name == FAI and event.args:
        next_ticket, now_serving = state
        if event.args[0] == t_cell(lock):
            return (next_ticket + 1, now_serving)
        if event.args[0] == n_cell(lock):
            return (next_ticket, now_serving + 1)
    return state


replay_ticket_counters = ReplayFn("Rticket", _ticket_init, _ticket_step)
"""``Rticket``'s fold: ``(next_ticket, now_serving)`` from ``FAI`` events
on the lock's two cells."""


def replay_ticket(log: Log, lock: Any, width_bits: int = 32) -> TicketState:
    """``Rticket`` (§4.1): count ``FAI`` events on the two lock cells."""
    next_ticket, now_serving = replay_ticket_counters(log, lock)
    width = IntWidth(width_bits)
    return TicketState(
        now_serving=now_serving,
        next_ticket=next_ticket,
        now_wrapped=width.wrap(now_serving),
        next_wrapped=width.wrap(next_ticket),
    )


def _lock_init(lock) -> Tuple[Any, Optional[int]]:
    return (("vundef",), None)


def _lock_step(state, event: Event, lock):
    value, holder = state
    if event.name == ACQ and event.args and event.args[0] == lock:
        if holder is not None:
            raise Stuck(
                f"mutual exclusion violated: {event.tid}.acq({lock}) while "
                f"held by {holder}"
            )
        return (value, event.tid)
    if event.name == REL and event.args and event.args[0] == lock:
        if holder != event.tid:
            raise Stuck(
                f"{event.tid}.rel({lock}) without holding (holder={holder})"
            )
        return (event.args[1] if len(event.args) > 1 else value, None)
    return state


replay_lock = ReplayFn("Rlock", _lock_init, _lock_step)
"""Replay of the *atomic* lock interface: ``(value, holder)`` from
``acq``/``rel`` events.  Raises on mutual-exclusion violations, so any
game over the atomic interface that completes is ME-consistent."""


def lock_holder(log: Log, lock: Any) -> Optional[int]:
    return replay_lock(log, lock)[1]


# --- M1: the implementation (players over Lx86) ------------------------------


def acq_impl(ctx: ExecutionContext, lock):
    """Fig. 10 ``acq``: fetch a ticket, spin on ``n``, pull the data."""
    my_t = yield from ctx.call(FAI, t_cell(lock))
    while True:
        ctx.consume_fuel()
        now = yield from ctx.call(ALOAD, n_cell(lock))
        if now == my_t:
            break
    value = yield from ctx.call(PULL, lock)
    return None


def rel_impl(ctx: ExecutionContext, lock):
    """Fig. 10 ``rel``: push the data, increment now-serving."""
    yield from ctx.call(PUSH, lock)
    yield from ctx.call(FAI, n_cell(lock))
    return None


# --- L_lock_low: the low-level strategies (φ'_acq, φ'_rel) -------------------


def make_acq_low_spec(width_bits: int = 32):
    """``φ'_acq``: the §2 automaton — still exposes the spin loop."""

    def acq_low_spec(ctx: ExecutionContext, lock):
        yield from ctx.query()
        state = replay_ticket(ctx.log, lock, width_bits)
        my_t = state.next_wrapped
        ctx.emit(FAI, t_cell(lock), ret=my_t)
        while True:
            ctx.consume_fuel()
            yield from ctx.query()
            state = replay_ticket(ctx.log, lock, width_bits)
            ctx.emit(ALOAD, n_cell(lock), ret=state.now_wrapped)
            if state.now_wrapped == my_t:
                break
        # The pull has its own query point (matching σpull, Fig. 8).
        yield from ctx.query()
        cell = replay_shared(ctx.log, lock)
        if not cell.status.is_free:
            raise Stuck(
                f"φ'_acq: pull({lock}) while {cell.status} — ticket "
                f"discipline violated by the environment"
            )
        ctx.emit(PULL, lock)
        value = None if cell.value == ("vundef",) else thaw(cell.value)
        local_copy(ctx)[lock] = value
        return None

    return acq_low_spec


def make_rel_low_spec(width_bits: int = 32):
    """``φ'_rel``: push the local copy, then increment ``n``."""

    def rel_low_spec(ctx: ExecutionContext, lock):
        copies = local_copy(ctx)
        if lock not in copies:
            raise Stuck(f"φ'_rel: rel({lock}) without a pulled copy")
        cell = replay_shared(ctx.log, lock)
        if cell.status.owner != ctx.tid:
            raise Stuck(f"φ'_rel: push({lock}) while {cell.status}")
        value = freeze(copies.pop(lock))
        ctx.emit(PUSH, lock, value)
        # The release increment happens outside the data critical section
        # (Fig. 10: push(b); ▷inc_n(b)), so the environment may be queried
        # between the two events.
        ctx.exit_critical()
        yield from ctx.query()
        state = replay_ticket(ctx.log, lock, width_bits)
        ctx.emit(FAI, n_cell(lock), ret=state.now_wrapped)
        return None

    return rel_low_spec


def lock_low_interface(
    base: LayerInterface,
    width_bits: int = 32,
    name: str = "L_lock_low",
    hide: Iterable[str] = (),
) -> LayerInterface:
    """The fun-lift overlay: ``acq``/``rel`` as low-level strategies."""
    return base.extend(
        name,
        [
            Prim(ACQ, make_acq_low_spec(width_bits), kind=SHARED,
                 enters_critical=True, cycle_cost=0,
                 doc="φ'_acq: ticket spin-lock acquire (low-level strategy)"),
            Prim(REL, make_rel_low_spec(width_bits), kind=SHARED,
                 cycle_cost=0,
                 doc="φ'_rel: ticket spin-lock release (low-level strategy)"),
        ],
        hide=hide,
    )


# --- L_lock: the atomic interface --------------------------------------------


def acq_atomic_spec(ctx: ExecutionContext, lock):
    """``φ_acq``: query E until the lock is free, then one ``acq`` event.

    Produces exactly one event and enters the critical state; the query
    loop absorbs environment events (the environment's rely condition
    guarantees release within a bound, so the loop terminates — this is
    the full specification of a *starvation-free* lock the paper
    emphasizes, enabling vertical composition of liveness).
    """
    while True:
        ctx.consume_fuel()
        yield from ctx.query()
        value, holder = replay_lock(ctx.log, lock)
        if holder is None:
            break
    ctx.emit(ACQ, lock)
    local_copy(ctx)[lock] = None if value == ("vundef",) else thaw(value)
    return None


def rel_atomic_spec(ctx: ExecutionContext, lock):
    """``φ_rel``: one ``rel(b, v)`` event carrying the published value."""
    copies = local_copy(ctx)
    if lock not in copies:
        raise Stuck(f"φ_rel: rel({lock}) without holding")
    _, holder = replay_lock(ctx.log, lock)
    if holder != ctx.tid:
        raise Stuck(f"φ_rel: rel({lock}) by non-holder (holder={holder})")
    value = freeze(copies.pop(lock))
    ctx.emit(REL, lock, value)
    return None
    yield  # pragma: no cover


def lock_atomic_interface(
    base: LayerInterface,
    name: str = "L_lock",
    hide: Iterable[str] = (),
) -> LayerInterface:
    """The log-lift overlay: atomic, starvation-free ``acq``/``rel``.

    Both the ticket lock and the MCS lock implement *this same*
    interface — "the lock implementations can be freely interchanged
    without affecting any proof in the higher-level modules" (§6).
    """
    return base.extend(
        name,
        [
            Prim(ACQ, acq_atomic_spec, kind="atomic",
                 enters_critical=True, cycle_cost=0,
                 doc="atomic lock acquire; loads the protected value"),
            Prim(REL, rel_atomic_spec, kind="atomic",
                 exits_critical=True, cycle_cost=0,
                 doc="atomic lock release; publishes the protected value"),
        ],
        hide=hide,
    )


# --- the log-lift simulation relation ----------------------------------------


def lock_relation(width_bits: int = 32) -> EventMapRel:
    """``R_lock``: relate low-level ticket traces to atomic lock events.

    * ``acq(b) ↦ pull(b)`` — the linearization point of a successful
      acquire is taking ownership of the protected data;
    * ``rel(b, v) ↦ push(b, v)`` — release linearizes at publication;
    * ``fai``/``aload`` are erased (ticket machinery noise).

    Concretization expands environment events to full low-level witness
    traces so the low-level replay functions stay consistent:
    ``acq(b) ↦ fai(t) • pull(b)`` and ``rel(b,v) ↦ push(b,v) • fai(n)``.
    """

    def conc_acq(event: Event) -> Tuple[Event, ...]:
        lock = event.args[0]
        return (
            Event(event.tid, FAI, (t_cell(lock),), None),
            Event(event.tid, PULL, (lock,), None),
        )

    def conc_rel(event: Event) -> Tuple[Event, ...]:
        lock = event.args[0]
        value = event.args[1] if len(event.args) > 1 else ("vundef",)
        return (
            Event(event.tid, PUSH, (lock, value), None),
            Event(event.tid, FAI, (n_cell(lock),), None),
        )

    def map_acq(event: Event) -> Tuple[Event, ...]:
        return (Event(event.tid, PULL, (event.args[0],), None),)

    def map_rel(event: Event) -> Tuple[Event, ...]:
        lock = event.args[0]
        value = event.args[1] if len(event.args) > 1 else ("vundef",)
        return (Event(event.tid, PUSH, (lock, value), None),)

    return EventMapRel(
        "R_lock",
        mapping={ACQ: map_acq, REL: map_rel},
        erase={FAI, ALOAD},
        concretize={ACQ: conc_acq, REL: conc_rel},
    )


# --- rely conditions -----------------------------------------------------------


def replay_consistent_inv(locks: Sequence[Any], width_bits: int = 32) -> LogInvariant:
    """The log replays without getting stuck for every given lock.

    This is the executable form of "lock-related events generated by φj
    must follow φ'acq[j] and φ'rel[j]" (§2): an environment whose events
    break the ticket/ownership discipline produces a replay-stuck prefix.
    One leaf per lock and fold: ``Rshared`` and ``Rlock``.
    """
    return all_of(
        f"replay_consistent{list(locks)}",
        (
            LogInvariant(f"{fold.name}[{lock!r}]", fold, (lock,))
            for lock in locks
            for fold in (replay_shared, replay_lock)
        ),
    )


def _ticket_protocol_init(lock) -> Tuple[int, ...]:
    return ()


def _ticket_protocol_step(waiting, event: Event, lock):
    if event.name == FAI and event.args:
        if event.args[0] == t_cell(lock):
            return waiting + (event.tid,)
        if event.args[0] == n_cell(lock):
            if not waiting or waiting[0] != event.tid:
                raise Stuck(f"{event.tid} released {lock} out of ticket order")
            return waiting[1:]
    elif event.name == PULL and event.args and event.args[0] == lock:
        if not waiting or waiting[0] != event.tid:
            raise Stuck(f"{event.tid} pulled {lock} out of ticket order")
    return waiting


ticket_protocol = ReplayFn(
    "ticket_protocol", _ticket_protocol_init, _ticket_protocol_step
)
"""The ticket discipline's fold: the tids holding a ticket that is not
yet served, oldest first."""


def ticket_protocol_inv(locks: Sequence[Any]) -> LogInvariant:
    """The ticket discipline: serve strictly in ticket order.

    Folding the log per lock: every ``fai(t)`` assigns the next ticket to
    its issuer; ``pull(b)`` is only legal for the participant whose
    ticket is now serving; ``fai(n)`` (the release increment) is only
    legal for the currently served participant.  This is the rely
    condition ``L'1[i].Rj`` of §2 — environment events "must follow
    φacq'[j] and φrel'[j]" — in executable form; without it an
    environment could jump the queue and starve the focused spinner.
    """
    return all_of(
        f"ticket_protocol{list(locks)}",
        (
            LogInvariant(f"ticket_protocol[{lock!r}]", ticket_protocol, (lock,))
            for lock in locks
        ),
    )


def lock_rely(
    domain: Iterable[int],
    locks: Sequence[Any],
    release_bound: int = 4,
    fairness_bound: int = 8,
    width_bits: int = 32,
) -> Rely:
    """The rely condition of the lock layers.

    Every participant's events must keep the log replay-consistent and
    follow the ticket discipline; the scheduler is fair within
    ``fairness_bound``; held locks are released within ``release_bound``
    own-steps (the *definite action* that makes the atomic acquire's
    wait loop terminate).
    """
    inv = replay_consistent_inv(locks, width_bits) & ticket_protocol_inv(locks)
    return Rely(
        {tid: inv for tid in domain},
        fairness_bound=fairness_bound,
        release_bound=release_bound,
    )


#: The complete event vocabulary of the certified lock stacks: machine
#: atomics, push/pull memory events, and the atomic lock actions.  Used
#: as the declared guarantee event set of the ticket-lock derivation
#: (rely/guarantee lint REPRO-I203 checks every statically reachable
#: emit site against it).
LOCK_EVENTS = frozenset(
    {FAI, ALOAD, "astore", "cas", "swap", PULL, PUSH, ACQ, REL}
)


def lock_guarantee(
    domain: Iterable[int],
    locks: Sequence[Any],
    events: Optional[Iterable[str]] = None,
) -> Guarantee:
    """The guarantee: focused participants also keep replay consistency.

    ``events`` optionally declares the closed event-name set the focused
    participants may emit (see :data:`LOCK_EVENTS`); callers whose
    stacks add further events (the shared queue) leave it undeclared.
    """
    inv = replay_consistent_inv(locks)
    return Guarantee({tid: inv for tid in domain}, events=events)


# --- environment alphabets for the simulation checks ---------------------------


def atomic_env_alphabet(
    env_tids: Iterable[int],
    locks: Sequence[Any],
    values: Sequence[Any] = (("env", 0),),
) -> List[Tuple[Event, ...]]:
    """High-level environment batches for the lock checks.

    Each batch is guarantee-complete: an environment participant that
    acquires also releases within the batch (the atomic layer never
    observes a foreign critical section that does not finish — justified
    by the starvation-freedom of the certified lock; see DESIGN.md §4).
    """
    batches: List[Tuple[Event, ...]] = [()]
    for tid in env_tids:
        for lock in locks:
            for value in values:
                batches.append(
                    (
                        Event(tid, ACQ, (lock,)),
                        Event(tid, REL, (lock, freeze(value))),
                    )
                )
    return batches


def ticket_lock_unit() -> "TranslationUnit":
    """The Fig. 10 C source of the ticket lock, as a mini-C unit.

    ::

        void acq(uint b) {              void rel(uint b) {
            uint myt = ▷fai(&t[b]);         push(b);
            while (1) {                     ▷fai(&n[b]);
                uint now = ▷aload(&n[b]);
                if (now == myt) break;  }
            }
            ▷pull(b);
        }
    """
    from ..clight.ast import (
        Break,
        Call,
        CFunction,
        Const,
        If,
        Seq,
        TranslationUnit,
        Tup,
        Var,
        While,
        eq,
    )

    t_addr = Tup([Const("ticket_t"), Var("b")])
    n_addr = Tup([Const("ticket_n"), Var("b")])
    acq = CFunction(
        "acq",
        ["b"],
        Seq(
            [
                Call(Var("myt"), FAI, [t_addr]),
                While(
                    Const(1),
                    Seq(
                        [
                            Call(Var("now"), ALOAD, [n_addr]),
                            If(eq(Var("now"), Var("myt")), Break()),
                        ]
                    ),
                ),
                Call(None, PULL, [Var("b")]),
            ]
        ),
        doc="ticket lock acquire (Fig. 10)",
    )
    rel = CFunction(
        "rel",
        ["b"],
        Seq(
            [
                Call(None, PUSH, [Var("b")]),
                Call(None, FAI, [n_addr]),
            ]
        ),
        doc="ticket lock release (Fig. 10)",
    )
    unit = TranslationUnit("ticket_lock")
    unit.add(acq)
    unit.add(rel)
    return unit


def low_env_alphabet(
    env_tids: Iterable[int],
    locks: Sequence[Any],
    values: Sequence[Any] = (("env", 0),),
) -> List[Tuple[Event, ...]]:
    """Low-level environment batches: full ticket round-trips."""
    batches: List[Tuple[Event, ...]] = [()]
    for tid in env_tids:
        for lock in locks:
            for value in values:
                batches.append(
                    (
                        Event(tid, FAI, (t_cell(lock),)),
                        Event(tid, PULL, (lock,)),
                        Event(tid, PUSH, (lock, freeze(value))),
                        Event(tid, FAI, (n_cell(lock),)),
                    )
                )
    return batches


# --- the full Fig. 5 derivation ----------------------------------------------


@dataclass
class CertifiedLockStack:
    """All artifacts of the ticket-lock derivation (Fig. 5).

    * ``fun_lift[t]`` — ``Lx86[t] ⊢_id M1 : L_lock_low[t]`` per participant
    * ``log_lift[t]`` — ``L_lock_low[t] ≤_{R_lock} L_lock[t]``
    * ``layer[t]`` — ``Lx86[t] ⊢_{R_lock} M1 : L_lock[t]`` (by ``Wk``)
    * ``composed`` — ``Lx86[D'] ⊢_{R_lock} M1 : L_lock[D']`` (by ``Pcomp``)
    """

    base: LayerInterface
    low: LayerInterface
    atomic: LayerInterface
    module: Any
    fun_lift: Dict[int, Any]
    log_lift: Dict[int, Any]
    layer: Dict[int, Any]
    composed: Any


def lock_scenarios(lock: Any, config) -> List:
    """The protocol scenarios certifying acq/rel."""
    from ..core.simulation import Scenario

    return [
        Scenario("acq", [(ACQ, (lock,))], config),
        Scenario("acq_rel", [(ACQ, (lock,)), (REL, (lock,))], config),
        Scenario(
            "two_rounds",
            [(ACQ, (lock,)), (REL, (lock,)), (ACQ, (lock,)), (REL, (lock,))],
            config,
        ),
    ]


def certify_ticket_lock(
    domain: Sequence[int],
    lock: Any = "L",
    width_bits: int = 32,
    env_depth: int = 2,
    fuel: int = 2_000,
    focused: Optional[Sequence[int]] = None,
    use_c_source: bool = True,
):
    """Run the entire Fig. 5 derivation for the ticket lock.

    Builds ``Lx86`` over ``domain``, certifies the (C) implementation by
    fun-lift per focused participant, establishes the log-lift interface
    simulation, weakens, and parallel-composes over the focused set.
    Returns a :class:`CertifiedLockStack`; raises
    :class:`~repro.core.errors.VerificationError` if any obligation
    fails.
    """
    from ..clight.semantics import c_func_impl
    from ..core.calculus import interface_sim_rule, module_rule, pcomp_all, weaken
    from ..core.module import FuncImpl, Module
    from ..core.simulation import SimConfig

    focused = list(focused if focused is not None else domain)
    rely = lock_rely(domain, [lock], width_bits=width_bits)
    guar = lock_guarantee(domain, [lock], events=LOCK_EVENTS)
    base = lx86_like_interface(domain, width_bits, rely, guar)
    low = lock_low_interface(base, width_bits=width_bits)
    atomic = lock_atomic_interface(
        base, hide=["fai", "aload", "astore", "cas", "swap", "pull", "push"]
    )

    if use_c_source:
        unit = ticket_lock_unit()
        unit.width_bits = width_bits
        module = Module(
            {
                ACQ: c_func_impl(unit, ACQ),
                REL: c_func_impl(unit, REL),
            },
            name="M_ticket",
        )
    else:
        module = Module(
            {
                ACQ: FuncImpl(ACQ, acq_impl, lang="spec"),
                REL: FuncImpl(REL, rel_impl, lang="spec"),
            },
            name="M_ticket",
        )

    fun_lift = {}
    log_lift = {}
    layer = {}
    from ..core.relation import ID_REL

    relation = lock_relation(width_bits)
    for tid in focused:
        env_tids = [t for t in domain if t != tid]
        low_cfg = SimConfig(
            env_alphabet=low_env_alphabet(env_tids, [lock]),
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


def lx86_like_interface(domain, width_bits, rely, guar):
    """Build the bottom interface (kept separate for import-cycle hygiene)."""
    from ..core.machint import IntWidth
    from ..machine.cpu_local import lx86_interface

    return lx86_interface(
        domain, width=IntWidth(width_bits), rely=rely, guar=guar
    )
