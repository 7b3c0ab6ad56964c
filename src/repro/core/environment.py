"""Environment contexts: the strategies of everyone *not* focused.

When a layer machine focuses on a participant set ``A``, all behaviour of
the scheduler and of participants outside ``A`` is encapsulated in an
*environment context* ``E`` (paper §2, §3.2).  At each query point the
machine asks ``E`` for events until control is back in ``A`` — the paper
writes ``E[A, l]`` for that whole extension process.

Concrete environment contexts here:

* :class:`NullEnv` — the empty environment (sequential runs).
* :class:`ScriptedEnv` — replays a fixed list of event batches, one batch
  per query point.  Def. 2.1 quantifies over environmental *event
  sequences*; scripted environments are exactly those sequences.
* :class:`ChoiceEnv` — a scripted environment driven by an explicit
  choice sequence over an alphabet; the simulation checker uses it to
  enumerate all environment behaviours to a bounded depth (DFS over
  choices), recording how many choices each run consumed.
* :class:`StrategyEnv` — a genuine game-semantic environment: a scheduler
  strategy plus per-participant strategies that compute events from the
  current log.

All environments are single-use (they carry a cursor); ``fresh()``
produces a reset copy so one description can drive many runs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import RelyViolation
from .events import Event, hw_sched
from .log import Log, LogBuffer

Batch = Tuple[Event, ...]


class EnvContext:
    """Interface for environment contexts."""

    def advance(self, buffer: LogBuffer, focused_tid: int, ctx=None) -> Batch:
        """Append this query point's environment events to the buffer.

        Returns the batch appended (possibly empty).  Called exactly once
        per query point of the focused player.  ``ctx`` is the focused
        player's execution context (call-aware environments read its
        ``scenario_call``).
        """
        raise NotImplementedError

    def fresh(self) -> "EnvContext":
        raise NotImplementedError


class NullEnv(EnvContext):
    """The environment that never produces events (sequential execution)."""

    def advance(self, buffer: LogBuffer, focused_tid: int, ctx=None) -> Batch:
        return ()

    def fresh(self) -> "NullEnv":
        return NullEnv()

    def __repr__(self):
        return "NullEnv()"


class ScriptedEnv(EnvContext):
    """Replay a fixed sequence of event batches, one per query point.

    After the script is exhausted the environment goes idle (empty
    batches), modelling "it then becomes idle and will not produce any
    more events" (§2).
    """

    def __init__(self, batches: Sequence[Batch], transform=None):
        self.batches: List[Batch] = [tuple(batch) for batch in batches]
        self.cursor = 0
        #: Optional lowering applied at delivery time: ``transform(batch,
        #: log)`` — used by stateful simulation relations whose witness
        #: events depend on the low-level log so far.
        self.transform = transform

    def advance(self, buffer: LogBuffer, focused_tid: int, ctx=None) -> Batch:
        if self.cursor >= len(self.batches):
            return ()
        batch = self.batches[self.cursor]
        self.cursor += 1
        if self.transform is not None:
            batch = tuple(self.transform(batch, buffer.snapshot()))
        buffer.extend(batch)
        return batch

    def fresh(self) -> "ScriptedEnv":
        return ScriptedEnv(self.batches, self.transform)

    def consumed(self) -> int:
        return self.cursor

    def __repr__(self):
        return f"ScriptedEnv({self.batches!r}@{self.cursor})"


class ChoiceEnv(EnvContext):
    """An environment driven by an explicit choice sequence.

    ``alphabet`` is the set of batches the environment may produce at any
    query point (derived from the rely condition: what other participants
    are allowed to do).  ``choices`` indexes into the alphabet, one index
    per query point.  When the choice sequence runs out the environment
    reports it via :attr:`exhausted_at` and produces empty batches — the
    DFS in :mod:`repro.core.simulation` uses that signal to extend the
    choice prefix and re-run.

    ``on_last`` (optional) is called once, with ``buffer.snapshot()``,
    right after the batch of the last choice is appended: from then on
    this environment appends nothing.  The simulation checker decides
    rely validity there, and stops a rely-invalid run by raising.
    """

    def __init__(
        self,
        alphabet: Sequence[Batch],
        choices: Sequence[int],
        on_last: Optional[Callable[[Log], None]] = None,
    ):
        self.alphabet: List[Batch] = [tuple(b) for b in alphabet]
        self.choices: Tuple[int, ...] = tuple(choices)
        self.cursor = 0
        self.exhausted_at: Optional[int] = None
        self.on_last = on_last

    def advance(self, buffer: LogBuffer, focused_tid: int, ctx=None) -> Batch:
        if self.cursor >= len(self.choices):
            if self.exhausted_at is None:
                self.exhausted_at = self.cursor
            self.cursor += 1
            return ()
        batch = self.alphabet[self.choices[self.cursor]]
        self.cursor += 1
        buffer.extend(batch)
        if self.on_last is not None and self.cursor == len(self.choices):
            self.on_last(buffer.snapshot())
        return batch

    def fresh(self) -> "ChoiceEnv":
        return ChoiceEnv(self.alphabet, self.choices, self.on_last)

    def __repr__(self):
        return f"ChoiceEnv(|Σ|={len(self.alphabet)}, choices={self.choices})"


class StrategyEnv(EnvContext):
    """A game-semantic environment: scheduler + participant strategies.

    ``strategies`` maps each environment participant id to a function
    ``Log -> tuple[Event, ...]`` (its next move given the current log —
    the paper's ``φ_i(l)``).  ``schedule`` is the scheduler strategy: a
    function ``Log -> int`` picking who moves next.  ``advance`` loops:
    pick a participant; if focused, emit the scheduling event and stop;
    otherwise append that participant's move and continue.  ``max_moves``
    bounds the loop (the fairness assumption: a fair scheduler hands
    control back within finitely many steps).
    """

    def __init__(
        self,
        strategies: Dict[int, Callable[[Log], Batch]],
        schedule: Callable[[Log], int],
        max_moves: int = 64,
        record_sched: bool = False,
    ):
        self.strategies = dict(strategies)
        self.schedule = schedule
        self.max_moves = max_moves
        self.record_sched = record_sched

    def advance(self, buffer: LogBuffer, focused_tid: int, ctx=None) -> Batch:
        appended: List[Event] = []
        for _ in range(self.max_moves):
            log = buffer.snapshot()
            who = self.schedule(log)
            if who == focused_tid or who not in self.strategies:
                if self.record_sched:
                    event = hw_sched(focused_tid)
                    buffer.append(event)
                    appended.append(event)
                return tuple(appended)
            move = tuple(self.strategies[who](log))
            buffer.extend(move)
            appended.extend(move)
        raise RelyViolation(
            f"environment scheduler failed to return control to {focused_tid} "
            f"within {self.max_moves} moves (unfair scheduler)"
        )

    def fresh(self) -> "StrategyEnv":
        return StrategyEnv(
            self.strategies, self.schedule, self.max_moves, self.record_sched
        )


class CallScriptedEnv(EnvContext):
    """Deliver witness batches aligned to scenario call boundaries.

    ``groups[k]`` is the (already concretized) batch group recorded
    during call ``k`` of the high-level run.  It is delivered at the
    first query point the low-level player reaches *within call k* — not
    eagerly at whatever query point comes next, which would let the
    witness environment act in the middle of the implementation's spin
    loop and produce an unrelated interleaving.  Undelivered earlier
    groups are flushed first, preserving order.
    """

    def __init__(self, groups: Sequence[Batch], transform=None):
        self.groups: List[Batch] = [tuple(g) for g in groups]
        self.delivered = 0
        self.transform = transform

    def advance(self, buffer: LogBuffer, focused_tid: int, ctx=None) -> Batch:
        call = getattr(ctx, "scenario_call", 0) if ctx is not None else 0
        out: List[Event] = []
        while self.delivered <= call and self.delivered < len(self.groups):
            group = self.groups[self.delivered]
            if self.transform is not None:
                # Deliver-then-lower group by group so each lowered group
                # sees the effects of the previous ones.
                lowered = tuple(self.transform(group, buffer.snapshot()))
                buffer.extend(lowered)
                out.extend(lowered)
            else:
                buffer.extend(group)
                out.extend(group)
            self.delivered += 1
        return tuple(out)

    def fresh(self) -> "CallScriptedEnv":
        return CallScriptedEnv(self.groups, self.transform)

    def __repr__(self):
        return f"CallScriptedEnv({len(self.groups)} groups@{self.delivered})"


class RecordingEnv(EnvContext):
    """Wrap an environment and record the batch delivered at each query."""

    def __init__(self, inner: EnvContext):
        self.inner = inner
        self.batches: List[Batch] = []

    def advance(self, buffer: LogBuffer, focused_tid: int, ctx=None) -> Batch:
        batch = self.inner.advance(buffer, focused_tid, ctx)
        self.batches.append(batch)
        return batch

    def fresh(self) -> "RecordingEnv":
        return RecordingEnv(self.inner.fresh())


def round_robin_schedule(order: Sequence[int]) -> Callable[[Log], int]:
    """A scheduler strategy cycling through ``order`` based on log length."""
    order = list(order)

    def schedule(log: Log) -> int:
        return order[len(log) % len(order)]

    return schedule
