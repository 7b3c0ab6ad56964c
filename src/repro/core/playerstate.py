"""Player state as a value: capture and restore of suspended game players.

The game enumerator (:func:`repro.core.machine.enumerate_game_logs`)
starts each sibling run at a recorded branch round.  Players are Python
generators, and a generator cannot be copied, so in general a sibling
re-executes the recorded rounds before it.  For the player chain both
Thm 2.2 games run — a :func:`~repro.core.machine.seq_player` client
whose calls are ClightX functions ``link``ed from
:func:`~repro.clight.semantics.c_player`, which call primitives — the
engine keeps every piece of player state explicitly instead, so it can
be copied at a branch round and installed in a sibling:

* the client's return values so far, ``ctx.rets`` (their count is the
  index of the call in progress);
* one :class:`~repro.clight.semantics.Activation` per running ClightX
  body on ``ctx.frames``: the function, its locals, the ``Call`` it is
  in and that call's argument values.  Each call site's continuation is
  fixed at translation, so the record says where the body resumes;
* the pending primitive at the innermost call.  It is restarted: its
  specification is called again and advanced to its query, which is
  sound only for a *restartable* specification
  (:func:`repro.analysis.effects.restartability`);
* the context's counters and its private state.

A game is resumable when every participant is such a client and the
game is not fine-grained.  At a branch round each suspended participant
must also be accounted for by its records — at least one activation,
each inside a call, the outer ones in same-unit callees, the innermost
in a restartable primitive — and its values must be copyable.
Otherwise the round stores no state and its siblings re-execute the
recorded rounds as any other game's do.  An interpreter that keeps no
records therefore falls back on its own.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Mapping, NamedTuple, Optional, Sequence, Tuple

from ..analysis.effects import RESTARTABLE, restartability
from .context import ExecutionContext
from .log import LogBuffer, MemoTable

#: ``(interpreter, function name)`` of the ClightX entry of each client call.
Entries = Tuple[Tuple[Any, str], ...]


class Participant(NamedTuple):
    """One started participant at a branch round.

    ``counters`` are the context's ``fuel``, ``cycles``, ``critical``,
    ``queries`` and ``scenario_call``.  A finished participant keeps
    only those (``frames`` empty, ``values`` None).  A suspended one
    keeps ``(interpreter, function, call site)`` per activation,
    outermost first, and ``values``: one deep copy of its private state,
    its client's return values and each activation's ``(env, argument
    values)``, made with a single memo so that aliasing among them
    survives.
    """

    counters: Tuple[int, int, int, int, int]
    frames: Tuple[Tuple[Any, str, Any], ...]
    values: Any


#: A participant that has not been scheduled: restored as a fresh player.
UNSTARTED = Participant((0, 0, 0, 0, 0), (), None)


class GameState(NamedTuple):
    """The players' state at a branch round, as :func:`run_game` keeps it.

    ``memo`` is a copy of the log buffer's replay checkpoints, so a
    restored run folds only the events appended after the branch round.
    ``entries`` is :func:`resumable_entries` of the game.
    """

    players: Dict[int, Participant]
    rets: Dict[int, Any]
    current: Optional[int]
    memo: MemoTable
    entries: Dict[int, Entries]


def resumable_entries(
    interface: Any, players: Mapping[int, Tuple[Any, Tuple[Any, ...]]],
    fine_grained: bool,
) -> Optional[Dict[int, Entries]]:
    """Per participant, the ClightX entry of each client call.

    None unless the game is resumable: not fine-grained, and every
    player a ``seq_player`` whose every call resolves to a ``link``ed
    ``c_player`` function of ``interface``.
    """
    if fine_grained:
        return None
    out: Dict[int, Entries] = {}
    for tid, (player, args) in players.items():
        calls = getattr(player, "__seq_calls__", None)
        if calls is None or args:
            return None
        entries = []
        for name, _args in calls:
            prim = interface.prims.get(name)
            linked = getattr(getattr(prim, "spec", None), "__linked_player__", None)
            entry = getattr(linked, "__c_function__", None)
            if entry is None:
                return None
            entries.append(entry)
        out[tid] = tuple(entries)
    return out


def capture_game(
    ctxs: Mapping[int, ExecutionContext],
    entries: Dict[int, Entries],
    saved: Dict[int, Participant],
    rets: Dict[int, Any],
    current: Optional[int],
    buffer: LogBuffer,
) -> Optional[GameState]:
    """The game's state at a branch round, or None if a player resists.

    ``saved`` holds each participant's last capture and must drop a
    participant when it runs; a participant still in it is not copied
    again.
    """
    players = {}
    for tid, ctx in ctxs.items():
        part = saved.get(tid)
        if part is None:
            part = _capture(ctx, entries[tid], tid in rets)
            if part is None:
                return None
            saved[tid] = part
        players[tid] = part
    return GameState(players, dict(rets), current, buffer.memo_copy(), entries)


def _capture(
    ctx: ExecutionContext, entries: Entries, finished: bool,
) -> Optional[Participant]:
    counters = (
        ctx.fuel, ctx.cycles, ctx.critical, ctx.queries, ctx.scenario_call,
    )
    if finished:
        return Participant(counters, (), None)
    rets = ctx.rets
    if rets is None:
        return UNSTARTED
    frames = ctx.frames
    if not frames or ctx.critical or len(rets) >= len(entries):
        return None
    first = frames[0]
    interp, name = entries[len(rets)]
    if first.interp is not interp or first.name != name:
        return None
    for outer, inner in zip(frames, frames[1:]):
        site = outer.site
        if (
            site is None or site.name != inner.name
            or inner.interp is not outer.interp
            or site.name not in outer.interp.unit.functions
        ):
            return None
    last = frames[-1]
    site = last.site
    if site is None or site.name in last.interp.unit.functions:
        return None
    prim = ctx.interface.prims.get(site.name)
    if prim is None or restartability(prim.spec) != RESTARTABLE:
        return None
    try:
        values = deep_copy(
            (ctx.priv, rets, tuple((frame.env, frame.values) for frame in frames))
        )
    except (TypeError, copy.Error):  # a value that cannot be copied
        return None
    return Participant(
        counters,
        tuple((frame.interp, frame.name, frame.site) for frame in frames),
        values,
    )


def restore_player(
    ctx: ExecutionContext, calls: Sequence[Tuple[str, Tuple[Any, ...]]],
    part: Participant,
) -> Optional[Any]:
    """Install ``part`` on the fresh ``ctx``.

    Returns the generator that resumes the player at its query point,
    or None for a finished participant.  The activations re-enter
    through :meth:`~repro.clight.semantics.Interp.run_function`, so a
    wrapper on that boundary sees them as it sees any other call.
    """
    (
        ctx.fuel, ctx.cycles, ctx.critical, ctx.queries, ctx.scenario_call,
    ) = part.counters
    if part.values is None:
        return None
    priv, rets, locals_ = deep_copy(part.values)
    ctx.priv = priv
    ctx.rets = rets
    chain = None
    for (_interp, _name, site), (env, values) in zip(
        reversed(part.frames), reversed(locals_)
    ):
        chain = (env, site, values, chain)
    interp, name, _site = part.frames[0]
    return _resume_client(
        ctx, calls, rets, interp.run_function(ctx, name, None, chain)
    )


#: Types whose values are immutable and refer to nothing.
_ATOMS = frozenset({int, str, bool, float, bytes, type(None)})


def deep_copy(value: Any, memo: Optional[Dict[int, Any]] = None) -> Any:
    """``copy.deepcopy(value)``, fast on the plain values players hold.

    Dicts, lists and tuples are copied here, atoms are shared, and any
    other object goes to :func:`copy.deepcopy` with the same memo, so
    aliasing is kept across all of them.
    """
    kind = type(value)
    if kind in _ATOMS:
        return value
    if memo is None:
        memo = {}
    if kind is tuple:
        out = None
        for index, item in enumerate(value):
            if type(item) not in _ATOMS:
                new = deep_copy(item, memo)
                if new is not item:
                    if out is None:
                        out = list(value)
                    out[index] = new
        return value if out is None else tuple(out)
    key = id(value)
    if key in memo:
        return memo[key]
    if kind is dict:
        copied: Any = {}
        memo[key] = copied
        for name, item in value.items():
            if type(name) not in _ATOMS:
                name = deep_copy(name, memo)
            copied[name] = item if type(item) in _ATOMS else deep_copy(item, memo)
        return copied
    if kind is list:
        copied = []
        memo[key] = copied
        copied.extend([
            item if type(item) in _ATOMS else deep_copy(item, memo)
            for item in value
        ])
        return copied
    return copy.deepcopy(value, memo)


def _resume_client(ctx, calls, rets, pending):
    """The rest of a ``seq_player`` run, from inside call ``len(rets)``."""
    rets.append((yield from pending))
    for name, args in calls[len(rets):]:
        rets.append((yield from ctx.call(name, *args)))
    return rets
