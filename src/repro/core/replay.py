"""Replay functions: reconstructing shared state from the global log.

"Such functions that reconstruct the current shared state from the log are
called replay functions" (§2).  The CCAL discipline never stores shared
state: every shared primitive recomputes whatever state it needs by
folding over the log.  A replay fold that encounters an impossible event
sequence (e.g. a ``pull`` of an already-owned location) raises
:class:`~repro.core.errors.Stuck` — this is exactly how the push/pull
model detects data races (Fig. 8: the ``None`` branches).

This module provides the fold framework (:class:`ReplayFn`) and the
paper's ``Rshared`` (Fig. 8).  Object-specific replay functions
(``Rticket``, ``Rsched``, ``Rqueue``, ...) live with their objects in
:mod:`repro.objects`.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generic, Optional, TypeVar

from ..obs import obs_enabled
from ..obs.metrics import inc
from .errors import Stuck
from .events import PULL, PUSH, Event
from .log import Log

S = TypeVar("S")

#: Every live ReplayFn, so checkers can expose aggregate ``cache_info()``
#: in certificate provenance without threading instances around.
_REPLAY_REGISTRY: "weakref.WeakSet[ReplayFn]" = weakref.WeakSet()


class ReplayFn(Generic[S]):
    """A replay function as a fold ``(init, step)`` over the log.

    ``init(*params)`` is the state of the empty log and
    ``step(state, event[, *params]) -> state`` folds one more event; it
    may raise :class:`Stuck` to signal an ill-formed log.  Calling the
    instance as ``fn(log, *params)`` returns the fold of the whole log.

    The fold is incremental.  Checkpoints ``(k, state)`` — ``state`` is
    the fold of the first ``k`` events — live in the log's memo table
    (:meth:`Log.replay_checkpoint`), keyed exactly by ``(fn, params)``:
    no hash of the log stands in for the log, so no collision can hand
    one log's state to another.  All snapshots of one
    :class:`~repro.core.log.LogBuffer` share its table, so a query on a
    snapshot of length ``n`` folds only ``events[k:n]`` and moves the
    checkpoint to ``n``; ``k == n`` means no fold work.  When ``step``
    raises :class:`Stuck`, the checkpoint stays at the last good prefix
    and the same query raises again.

    The memo is sound only under this contract: ``params`` are hashable
    and never mutated, and ``step`` is pure — it returns a new state and
    never mutates the one it was given, since that object is the
    checkpoint every later query resumes from and the result earlier
    callers hold (lint rules ``REPRO-R401``–``R404`` check it).
    """

    def __init__(
        self,
        name: str,
        init: Callable[..., S],
        step: Callable[..., S],
    ):
        self.name = name
        self._init = init
        self._step = step
        self._step_takes_params = _arity_at_least(step, 3)
        # Call accounting: [hits, misses, events folded], and the live
        # memo tables holding a checkpoint of this function.  Both are
        # run-dependent and kept out of content fingerprints.
        self._stats = [0, 0, 0]
        self._tables: "weakref.WeakSet" = weakref.WeakSet()
        self._stats_lock = threading.Lock()
        _REPLAY_REGISTRY.add(self)

    def __call__(self, log, *params) -> S:
        if not isinstance(log, Log):
            log = Log(log)
        key = (self, params)
        table, entry = log.replay_checkpoint(key)
        events = log.events
        n = len(events)
        if entry is None:
            k, state = 0, self._init(*params)
        else:
            k, state = entry
        if k == n:
            self._account(0)
            return state
        # A table's first checkpoint of this function makes it one more
        # table holding a checkpoint (``currsize``).
        new_table = table if entry is None else None
        step = self._step
        i = k
        try:
            if not self._step_takes_params:
                for i in range(k, n):
                    state = step(state, events[i])
            elif len(params) == 1:
                # The common shape (one cell, lock or queue), spelled
                # out: a plain call is about twice as fast as ``*params``.
                (param,) = params
                for i in range(k, n):
                    state = step(state, events[i], param)
            else:
                for i in range(k, n):
                    state = step(state, events[i], *params)
        except Stuck:
            # ``state`` is still the fold of ``events[:i]``.
            table[key] = (i, state)
            self._account(i - k + 1, new_table)
            raise
        table[key] = (n, state)
        self._account(n - k, new_table)
        return state

    def _account(self, folded: int, new_table=None) -> None:
        """Count one call that ran ``step`` ``folded`` times."""
        miss = folded > 0
        with self._stats_lock:
            self._stats[1 if miss else 0] += 1
            self._stats[2] += folded
            if new_table is not None:
                self._tables.add(new_table)
        if obs_enabled():
            inc("replay.cache_misses" if miss else "replay.cache_hits")

    def cache_info(self) -> Dict[str, int]:
        """Call accounting of this function over the process lifetime.

        ``hits`` are calls answered with no event folded, ``misses``
        calls that folded at least one event, ``events_folded`` the
        ``step`` invocations, and ``currsize`` the live memo tables
        (log buffers and standalone logs) holding a checkpoint.
        """
        hits, misses, folded = self._stats
        return {
            "hits": hits,
            "misses": misses,
            "currsize": len(self._tables),
            "events_folded": folded,
        }

    def __repr__(self):
        return f"ReplayFn({self.name})"


def all_replay_fns() -> "list[ReplayFn]":
    """Every live replay function, sorted by name — for the lint pass."""
    return sorted(_REPLAY_REGISTRY, key=lambda f: f.name)


def replay_cache_info() -> Dict[str, Dict[str, int]]:
    """``cache_info()`` of every live replay function, keyed by name.

    Stamped into certificate provenance by the checkers (obs-gated) so a
    certificate records how much log replay the run amortized.
    """
    out: Dict[str, Dict[str, int]] = {}
    for fn in sorted(_REPLAY_REGISTRY, key=lambda f: f.name):
        entry = out.setdefault(
            fn.name,
            {"hits": 0, "misses": 0, "currsize": 0, "events_folded": 0},
        )
        for field, value in fn.cache_info().items():
            entry[field] += value
    return out


def _arity_at_least(fn: Callable, n: int) -> bool:
    code = getattr(fn, "__code__", None)
    if code is None:  # pragma: no cover - builtins
        return False
    return code.co_argcount >= n


# --- ownership status for the push/pull memory model ----------------------


@dataclass(frozen=True)
class Ownership:
    """The ownership status of a shared location: free or owned by one id."""

    owner: Optional[int] = None

    @property
    def is_free(self) -> bool:
        return self.owner is None

    def __str__(self):
        return "free" if self.is_free else f"own {self.owner}"


FREE = Ownership(None)


def own(tid: int) -> Ownership:
    return Ownership(tid)


VUNDEF = ("vundef",)
"""The undefined initial value of a shared location (paper's ``vundef``)."""


@dataclass(frozen=True)
class SharedCell:
    """Replayed state of one shared location: its value and ownership."""

    value: Any
    status: Ownership

    def __iter__(self):
        # Allow `value, status = replay_shared(...)` unpacking.
        yield self.value
        yield self.status


def _shared_init(loc) -> SharedCell:
    return SharedCell(VUNDEF, FREE)


def _shared_step(state: SharedCell, event: Event, loc) -> SharedCell:
    if event.name == PULL and event.args and event.args[0] == loc:
        if not state.status.is_free:
            raise Stuck(
                f"data race: {event.tid}.pull({loc}) while {state.status}"
            )
        return SharedCell(state.value, own(event.tid))
    if event.name == PUSH and event.args and event.args[0] == loc:
        if state.status.owner != event.tid:
            raise Stuck(
                f"data race: {event.tid}.push({loc}) while {state.status}"
            )
        return SharedCell(event.args[1], FREE)
    return state


replay_shared = ReplayFn("Rshared", _shared_init, _shared_step)
"""``Rshared`` from Fig. 8: fold pull/push events for one location.

``replay_shared(log, loc)`` returns a :class:`SharedCell` ``(value,
status)``; it raises :class:`Stuck` on a racy log (pull of an owned
location, push by a non-owner).
"""


def replay_owner(log, loc) -> Optional[int]:
    """The current owner of shared location ``loc`` (or None if free)."""
    return replay_shared(log, loc).status.owner
