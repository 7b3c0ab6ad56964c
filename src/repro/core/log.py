"""Immutable global logs and the mutable log buffer used during execution.

The paper maintains one *global log* ``l`` per machine: the list of all
observable events in chronological order (§3.1).  All shared state is a
function of the log (computed by replay functions); the log is therefore
the single source of truth for everything shared.

Two representations are provided:

* :class:`Log` — an immutable, hashable snapshot.  Simulation relations,
  replay functions, rely/guarantee invariants and behaviour sets all work
  over :class:`Log` values.
* :class:`LogBuffer` — the mutable append-only buffer threaded through an
  execution; ``snapshot()`` produces a :class:`Log`.  Snapshots share no
  structure: the first one after an append copies the whole event list
  into a new tuple (O(n)), and only snapshots taken with no append in
  between return the same cached :class:`Log`.

Replay folds (:class:`~repro.core.replay.ReplayFn`) checkpoint their
state in a :class:`MemoTable`.  A buffer owns one table shared by all
of its snapshots: every snapshot of an append-only buffer is a prefix
of its later ones, so a checkpoint taken on one snapshot is valid for
every snapshot at least as long.  Any other log owns its own table.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Iterator, List, Optional, Tuple

from .events import Event, canonical_event, format_log, intern_event


class MemoTable(dict):
    """Replay checkpoints of one event sequence: ``key -> (k, state)``.

    ``state`` is the fold of the sequence's first ``k`` events under
    ``key`` (a replay function and its parameters).  Tables compare and
    hash by identity and are weakly referenceable, so replay functions
    can count the live tables holding their checkpoints.
    """

    __slots__ = ("__weakref__",)
    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__


class Log:
    """An immutable snapshot of the global event log (oldest first)."""

    __slots__ = ("_events", "_hash", "_memo")

    def __init__(self, events: Iterable[Event] = ()):
        object.__setattr__(self, "_events", tuple(events))
        object.__setattr__(self, "_hash", None)
        # ``_memo`` (replay checkpoints) stays unset until a buffer stamps
        # its table on a snapshot or the first replay query creates this
        # log's own table: most logs are never replayed.

    def __setattr__(self, name, value):  # pragma: no cover - immutability
        raise AttributeError("Log is immutable")

    @property
    def events(self) -> Tuple[Event, ...]:
        return self._events

    def append(self, event: Event) -> "Log":
        """``l • e`` — the log extended with one more event."""
        return Log(self._events + (event,))

    def extend(self, events: Iterable[Event]) -> "Log":
        return Log(self._events + tuple(events))

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __getitem__(self, index):
        result = self._events[index]
        if isinstance(index, slice):
            return Log(result)
        return result

    def __eq__(self, other):
        if self is other:
            return True
        if isinstance(other, Log):
            # Snapshots share event tuples structurally; identity of the
            # backing tuple settles equality without an element walk.
            return self._events is other._events or self._events == other._events
        return NotImplemented

    def __reduce__(self):
        # Log is a __slots__ class whose __setattr__ raises (immutability),
        # which breaks default pickling; rebuild from the event tuple and
        # recompute the hash lazily in the receiving process.  Replay
        # checkpoints are not sent: the copy starts with its own table.
        return (Log, (self._events,))

    def __hash__(self):
        cached = self._hash
        if cached is None:
            cached = hash(self._events)
            object.__setattr__(self, "_hash", cached)
        return cached

    def __repr__(self):
        return f"Log[{format_log(self._events)}]"

    def replay_checkpoint(self, key: Hashable) -> Tuple[MemoTable, Optional[Tuple[int, Any]]]:
        """The memo table that serves ``key`` on this log, and its entry.

        A snapshot shares its buffer's table while the table's
        checkpoints are prefixes of it.  A snapshot older than a
        checkpoint it is asked about switches to a table of its own, as
        does any log not taken from a buffer.  The returned entry
        ``(k, state)`` always has ``k <= len(self)``.
        """
        try:
            table = self._memo
        except AttributeError:  # neither stamped by a buffer nor queried yet
            pass
        else:
            entry = table.get(key)
            if entry is None or entry[0] <= len(self._events):
                return table, entry
        table = MemoTable()
        object.__setattr__(self, "_memo", table)
        return table, None

    # -- queries used by replay functions and invariants -------------------

    def project(self, tid: int) -> "Log":
        """The sub-log of events generated by participant ``tid``."""
        return Log(e for e in self._events if e.tid == tid)

    def events_named(self, *names: str) -> Tuple[Event, ...]:
        wanted = set(names)
        return tuple(e for e in self._events if e.name in wanted)

    def last(self) -> Optional[Event]:
        return self._events[-1] if self._events else None

    def count(self, name: str, tid: Optional[int] = None) -> int:
        return sum(
            1
            for e in self._events
            if e.name == name and (tid is None or e.tid == tid)
        )

    def current_control(self, default: int = 0) -> int:
        """The participant currently holding control.

        Determined by the most recent hardware-scheduling event; before
        any scheduling event, ``default`` holds control.
        """
        for event in reversed(self._events):
            if event.is_sched():
                return event.tid
        return default

    def suffix_after(self, prefix_len: int) -> Tuple[Event, ...]:
        """Events appended after the first ``prefix_len`` events."""
        return self._events[prefix_len:]

    def without_sched(self) -> "Log":
        """The log with hardware-scheduling events erased.

        Used when comparing logs across layers whose schedulers differ
        (§2: a low-level schedule "1,2,2,1,1,2,..." is captured by a
        high-level schedule "1,2"; only primitive events are related).
        """
        return Log(e for e in self._events if not e.is_sched())


EMPTY_LOG = Log()


class LogBuffer:
    """The mutable global log threaded through a running machine.

    Append-only.  ``snapshot()`` copies the whole event list into a new
    tuple, O(n), when events were appended since the previous snapshot,
    and otherwise returns that snapshot again.  Every snapshot shares
    the buffer's replay memo table, so a replay function folds each
    appended event once per key rather than re-folding the whole log on
    every query.
    """

    __slots__ = ("_events", "_snapshot", "_memo")

    def __init__(self, initial: Iterable[Event] = ()):
        # Events are interned on entry: sibling runs of a bounded
        # enumeration regenerate identical events, and canonical instances
        # make the resulting log tuples compare and hash by identity.
        self._events: List[Event] = [intern_event(e) for e in initial]
        self._snapshot: Optional[Log] = None
        self._memo = MemoTable()

    @classmethod
    def restored(cls, events: Tuple[Event, ...], memo: MemoTable) -> "LogBuffer":
        """A buffer holding the canonical ``events``, with a copy of ``memo``.

        ``memo`` holds replay checkpoints of a prefix of ``events`` (see
        :meth:`memo_copy`), so they are valid here too.
        """
        buffer = cls()
        buffer._events = list(events)
        buffer._memo = MemoTable(memo)
        return buffer

    def memo_copy(self) -> MemoTable:
        """A copy of the replay checkpoints taken so far.

        Replay states are never mutated (the
        :class:`~repro.core.replay.ReplayFn` contract), so the copy
        shares them safely.
        """
        return MemoTable(self._memo)

    def append(self, event: Event) -> None:
        self._events.append(intern_event(event))
        self._snapshot = None

    def emit(
        self, tid: int, name: str, args: Tuple[Any, ...] = (), ret: Any = None
    ) -> Event:
        """Append the event with these fields, interned before it is built."""
        event = canonical_event(tid, name, args, ret)
        self._events.append(event)
        self._snapshot = None
        return event

    def extend(self, events: Iterable[Event]) -> None:
        appended = False
        for event in events:
            self._events.append(intern_event(event))
            appended = True
        if appended:
            self._snapshot = None

    def snapshot(self) -> Log:
        if self._snapshot is None:
            snapshot = Log(self._events)
            object.__setattr__(snapshot, "_memo", self._memo)
            self._snapshot = snapshot
        return self._snapshot

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __repr__(self):
        return f"LogBuffer[{format_log(self._events)}]"
