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
in a restartable primitive — and its values must be immutable.
Otherwise the round stores no state and its siblings re-execute the
recorded rounds as any other game's do.  An interpreter that keeps no
records therefore falls back on its own.

A captured participant is a frozen value: its private state and locals
are copies that nothing mutates, its return values a tuple, and every
value they hold is immutable — an atom or a tuple of immutable values —
so the branch point, later points (a participant that has not run since
keeps its record) and every sibling share it by reference.  A restore
rebuilds the mutable containers with ``dict`` and ``list``; nothing is
copied recursively.  A participant holding any other value, such as a
list or an object in a local, is not captured, and the siblings of that
round re-execute.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from ..analysis.effects import RESTARTABLE, restartability
from .context import ExecutionContext
from .log import LogBuffer, MemoTable

#: ``(interpreter, function name)`` of the ClightX entry of each client call.
Entries = Tuple[Tuple[Any, str], ...]


class Participant(NamedTuple):
    """One started participant at a branch round.

    ``counters`` are the context's ``fuel``, ``cycles``, ``critical``,
    ``queries`` and ``scenario_call``.  A finished participant keeps
    only those.  A suspended one also keeps ``entry``, the
    ``(interpreter, function)`` of its outermost activation; ``frames``,
    ``(env, call site, argument values)`` per activation, outermost
    first; ``priv``, its private state; and ``rets``, its client's
    return values.  The record is frozen (:func:`_freeze`): the envs,
    ``priv`` and each dict in ``priv`` are copies that nothing mutates,
    and every value they hold is immutable.
    """

    counters: Tuple[int, int, int, int, int]
    entry: Optional[Tuple[Any, str]] = None
    frames: Tuple[Tuple[Dict[str, Any], Any, Tuple[Any, ...]], ...] = ()
    priv: Optional[Dict[Any, Any]] = None
    rets: Tuple[Any, ...] = ()


#: A participant that has not been scheduled: restored as a fresh player.
UNSTARTED = Participant((0, 0, 0, 0, 0))


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
    participant when it runs; a participant still in it is not captured
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
        return Participant(counters)
    rets = ctx.rets
    if rets is None:
        return UNSTARTED
    frames = ctx.frames
    if not frames or ctx.critical or len(rets) >= len(entries):
        return None
    first = frames[0]
    entry = entries[len(rets)]
    interp, name = entry
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
    return _freeze(counters, entry, ctx.priv, rets, frames)


def _freeze(
    counters: Tuple[int, int, int, int, int], entry: Tuple[Any, str],
    priv: Dict[Any, Any], rets: List[Any], frames: Sequence[Any],
) -> Optional[Participant]:
    """The frozen record of a suspended participant, or None.

    None unless every return value, argument value and env value, and
    every key and value of ``priv`` and of the dicts it holds, is
    immutable, and those dicts are distinct objects.  An env's keys are
    the function's parameter and variable names (strings, see
    :class:`~repro.clight.ast.CFunction`), and an env is reachable only
    from its activation.  An immutable value holds no container, so no
    two containers of the record can be one object: rebuilding each
    container from the record makes what a deep copy would.
    """
    if not (_immutables(rets) and _immutables(priv)):
        return None
    own = {}
    dicts = set()
    for key, value in priv.items():
        if type(value) is dict:
            if id(value) in dicts or not (
                _immutables(value) and _immutables(value.values())
            ):
                return None
            dicts.add(id(value))
            value = value.copy()
        elif not _immutable(value):
            return None
        own[key] = value
    kept = []
    for frame in frames:
        env = frame.env
        if not (_immutable(frame.values) and _immutables(env.values())):
            return None
        kept.append((env.copy(), frame.site, frame.values))
    return Participant(counters, entry, tuple(kept), own, tuple(rets))


def _immutables(values: Any) -> bool:
    """Whether every item of ``values`` is immutable."""
    return _ATOMS.issuperset(map(type, values)) or all(map(_immutable, values))


def _immutable(value: Any) -> bool:
    """Whether ``value`` is an atom or a tuple of immutable values."""
    kind = type(value)
    return kind in _ATOMS or kind is tuple and _immutables(value)


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
    if part.entry is None:
        return None
    ctx.priv = {
        key: dict(value) if type(value) is dict else value
        for key, value in part.priv.items()
    }
    rets = ctx.rets = list(part.rets)
    # Each activation gets an env of its own.
    chain = None
    for env, site, args in reversed(part.frames):
        chain = (dict(env), site, args, chain)
    interp, name = part.entry
    return _resume_client(
        ctx, calls, rets, interp.run_function(ctx, name, None, chain)
    )


#: Types whose values are immutable and refer to nothing.
_ATOMS = frozenset({int, str, bool, float, bytes, type(None)})


def _resume_client(ctx, calls, rets, pending):
    """The rest of a ``seq_player`` run, from inside call ``len(rets)``."""
    rets.append((yield from pending))
    for name, args in calls[len(rets):]:
        rets.append((yield from ctx.call(name, *args)))
    return rets
