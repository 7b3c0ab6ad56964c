"""Execution contexts and the player protocol.

Everything that *runs* over a layer interface — a C function interpreted
by :mod:`repro.clight.semantics`, an assembly function, or a specification
strategy written directly in Python — is a **player**: a generator
function ``player(ctx, *args)`` that

* reads and appends to the global log through its :class:`ExecutionContext`,
* suspends by ``yield QUERY`` exactly at the paper's *query points*
  (§3.2: "the point just before executing shared primitives"), and
* returns its result via ``return`` (captured from ``StopIteration``).

The driver that resumes players decides what a query point means: under a
local (CPU-local / thread-local) interface the environment context is
asked for events (``E[A, l]``); under a whole-machine game the scheduler
picks which player runs next.  This single suspension mechanism is what
makes the same specification usable both as a local strategy and as a
participant in the global game, mirroring the paper's strategy semantics.

Critical state: after a successful ``pull``/``acq`` the player is *in
critical state* and must not lose control (§2, §3.2); players therefore
query through :meth:`ExecutionContext.query`, which yields nothing while
``critical > 0``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from .errors import OutOfFuel, Stuck
from .events import Event
from .log import Log, LogBuffer


class Query:
    """The marker yielded by players at query points."""

    __slots__ = ()

    def __repr__(self):
        return "QUERY"


QUERY = Query()

#: Type alias (documentation only): a player is a generator function
#: ``(ctx, *args) -> Generator[Query, None, ret]``.
Player = Callable[..., Any]


class ExecutionContext:
    """Per-participant execution state threaded through a player.

    Attributes
    ----------
    interface:
        The layer interface the player runs over (an underlay: primitive
        calls resolve against it).
    tid:
        The participant id (CPU id or thread id) this player acts for.
    buffer:
        The shared mutable global log.
    priv:
        Private state: local variables of interpreted code, CPU-private
        memory, and local copies of pulled shared blocks.  Invisible to
        other participants (the paper's ``ρ``/``pm``).
    critical:
        Critical-section nesting depth; queries are suppressed while > 0.
    fuel:
        Remaining step budget; interpreters call :meth:`consume_fuel`.
    cycles:
        Simulated cycle counter (the §6 performance-evaluation cost
        model); incremented by the asm interpreter and by primitive-call
        overhead.
    """

    def __init__(
        self,
        interface,
        tid: int,
        buffer: LogBuffer,
        fuel: int = 10_000,
        priv: Optional[Dict[str, Any]] = None,
    ):
        self.interface = interface
        self.tid = tid
        self.buffer = buffer
        self.priv: Dict[str, Any] = priv if priv is not None else {}
        self.critical = 0
        self.fuel = fuel
        self.cycles = 0
        #: Completed query points so far (maintained by the drivers).
        self.queries = 0
        #: Index of the current scenario call (see
        #: :class:`repro.core.simulation.Scenario`); used by call-aware
        #: environment contexts to deliver witness batches at the right
        #: low-level query points.
        self.scenario_call = 0
        #: Fine-grained interleaving mode (the hardware machine ``Mx86``):
        #: every primitive call — even a silent private one — is a
        #: potential hardware-scheduling point, so ``call`` yields a query
        #: before private primitives too.  Layer machines leave this off;
        #: the multicore linking theorem (Thm 3.1) relates the two modes.
        self.fine_grained = False
        #: Activation records of the interpreted function bodies that
        #: can suspend, outermost first (kept by
        #: :meth:`repro.clight.semantics.Interp.run_function`).
        self.frames: List[Any] = []
        #: The return values so far of a ``seq_player`` running here.
        self.rets: Optional[List[Any]] = None

    # -- log access ---------------------------------------------------------

    @property
    def log(self) -> Log:
        """An immutable snapshot of the current global log."""
        return self.buffer.snapshot()

    def emit(self, name: str, *args, ret: Any = None) -> Event:
        """Append the event ``tid.name(args)↓ret`` to the global log."""
        return self.buffer.emit(self.tid, name, args, ret)

    # -- query points ---------------------------------------------------------

    def query(self):
        """Yield a query point unless in critical state.

        Specifications and interpreters write ``yield from ctx.query()``
        just before a shared-primitive step.  In critical state this is a
        no-op: the machine never asks the environment while holding
        ownership (§3.2, Fig. 8: ``σpush`` does not query E).
        """
        if self.critical == 0:
            yield QUERY

    def enter_critical(self) -> None:
        self.critical += 1

    def exit_critical(self) -> None:
        if self.critical == 0:
            raise Stuck(f"participant {self.tid} exited critical state twice")
        self.critical -= 1

    # -- primitive calls ------------------------------------------------------

    def call(self, name: str, *args):
        """Call an underlay primitive (a generator; use ``yield from``).

        Resolves ``name`` in the underlay interface, runs its
        specification, and maintains critical-state bookkeeping according
        to the primitive's declaration.
        """
        prim = self.interface.lookup(name)
        self.consume_fuel()
        self.cycles += prim.cycle_cost
        if self.fine_grained and self.critical == 0:
            yield QUERY
        ret = yield from prim.spec(self, *args)
        if prim.enters_critical:
            self.critical += 1
        if prim.exits_critical:
            self.exit_critical()
        return ret

    def restart_call(self, name: str, *args):
        """Re-enter a :meth:`call` suspended at its specification's query.

        The specification must be restartable
        (:func:`repro.analysis.effects.restartability`): it is called
        again and advanced to its query, where nothing has run yet.  The
        call's fuel and cycle charges were made before the suspension
        and are not repeated.
        """
        prim = self.interface.lookup(name)
        spec = prim.spec(self, *args)
        next(spec)
        ret = yield from spec
        if prim.enters_critical:
            self.critical += 1
        if prim.exits_critical:
            self.exit_critical()
        return ret

    # -- resource accounting ---------------------------------------------------

    def consume_fuel(self, amount: int = 1) -> None:
        self.fuel -= amount
        if self.fuel < 0:
            raise OutOfFuel(f"participant {self.tid} ran out of fuel")

    def charge_cycles(self, amount: int) -> None:
        self.cycles += amount


def run_player(gen) -> Any:
    """Run a player generator that must not query (sequential helper).

    Used for private primitives and for fully-critical code paths; raises
    :class:`Stuck` if the player unexpectedly reaches a query point.
    """
    try:
        marker = next(gen)
    except StopIteration as stop:
        return stop.value
    raise Stuck(f"unexpected query point: {marker!r}")
