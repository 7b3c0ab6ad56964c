"""State-space reduction for the bounded-exhaustive checkers.

The enumeration core explores every scheduling of a bounded game and
every environment context of a bounded simulation.  Most of that work is
redundant: the PR 5 profiler measured 84.3% replay-equivalent machine
runs on the Thm 2.2 soundness game.  This package removes the
redundancy without changing any verdict, through three independently
gated techniques:

``dpor``
    Dynamic partial-order reduction with sleep sets
    (:mod:`repro.reduce.dpor`).  The independence relation is the one
    already implicit in the push/pull log discipline: a scheduling step
    that appends no shared event (a *silent* step) reads and writes no
    shared state — by the lint rules I201/I202 every shared observation
    emits an event and private primitives touch only ``ctx.priv`` — so
    it commutes with every other step modulo hardware-scheduling events.
    Two pruning rules exploit it: *first-branch dominance* (a silent
    chosen step makes every sibling schedule equivalent to one in the
    chosen subtree, so the siblings are pruned) and *sleep sets*
    (participants explored earlier at a decision stay asleep in a later
    sibling's subtree for as long as the executed steps are silent, so
    the transposed duplicates are never scheduled at all).  The reduced
    DFS also replaces prefix *replays* (re-running a whole game to reach
    one new decision point) with path extension: a run keeps going past
    its branch round and records the branch points it passes, and each
    sibling run resumes at its recorded branch point without
    re-deciding the rounds before it.

``transpo``
    A hash-consed transposition table (:mod:`repro.reduce.dpor`) keyed
    by the profiler's state fingerprints
    (:func:`repro.reduce.fingerprint.state_fingerprint`): the non-sched
    event log, the per-participant step counts and the ready set.
    Deterministic, lint-clean players are a function of exactly that
    state, so a revisited key means the whole subtree was already
    explored (mod hardware-scheduling events) and the run is cut.  The
    table is scoped per explored subtree — the same scope in serial and
    parallel runs — so reduced enumeration commutes with ``REPRO_JOBS``
    (the PR 3 determinism contract).

``rg-simplify``
    An algebraic rely-guarantee pre-simplifier (:mod:`repro.reduce.laws`)
    applying a small law catalog before/around machine runs:
    *strengthen-guarantee* (a prefix-closed guarantee checked once on
    the final snapshot instead of at every query point),
    *weaken-rely* (unconstrained or prefix-closed rely conditions
    validated on the longest prefix only), *frame* (invariants with a
    declared event-name footprint are only re-checked when the log
    delta touches it) and *merge-compatible-obligations* (``Compat``
    implications discharged structurally and refinement witness
    searches shared between identical low logs).

``static-indep``
    Static independence seeds for the DPOR scheduler
    (:mod:`repro.analysis.independence`).  The interprocedural
    dependency analysis classifies whole players as *invisible* — every
    primitive in their transitive slice provably appends no event,
    queries nothing, reads neither log nor buffer, and touches only
    thread-private state — so their single scheduling step commutes
    with every other step, including steps that finish a player (which
    the dynamic silent-step heuristic must keep).  The scheduler defers
    invisible players instead of branching on them and keeps them
    asleep across non-silent steps.  Works with or without ``dpor``.

Gating: the ``REPRO_REDUCE`` environment variable (a comma-separated
subset of ``dpor,transpo,rg-simplify,static-indep``; ``off`` disables
everything; unset/``on``/``all`` enables all four) or the ``reduce=``
keyword on the rule constructors, resolved explicit-arg-first like the
lint gate.
With every axis off the checkers take the exact seed code paths and
produce byte-identical certificates.

Accounting stays honest: every pruned-as-equivalent class, law
application and table hit is tallied into a ``reduction`` provenance
block (:mod:`repro.reduce.stats`) merged through re-stamping like
coverage, rendered by ``repro.obs explain``/``dashboard`` and recorded
in ledger run records.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import FrozenSet, Iterable, List, Optional, Union

from .fingerprint import state_fingerprint
from .stats import (
    ReductionStats,
    contribute,
    merge_reduction_maps,
    reduction_collector,
    tally_law,
    tally_prune,
)

#: Axis names.
DPOR = "dpor"
TRANSPO = "transpo"
RG_SIMPLIFY = "rg-simplify"
STATIC_INDEP = "static-indep"
ALL_AXES: FrozenSet[str] = frozenset({DPOR, TRANSPO, RG_SIMPLIFY, STATIC_INDEP})

#: The machine-level axes (those that change which game runs execute).
MACHINE_AXES: FrozenSet[str] = frozenset({DPOR, TRANSPO, STATIC_INDEP})

REDUCE_ENV = "REPRO_REDUCE"

_ALL = {"", "on", "all", "1", "true", "yes", "default"}
_NONE = {"off", "none", "0", "false", "no"}


def parse_axes(value: Union[None, str, Iterable[str]]) -> FrozenSet[str]:
    """Parse a reduction spec into a set of axes.

    ``None``/``"on"``/``"all"`` mean every axis, ``"off"``/``"none"``
    mean no reduction, otherwise a comma-separated (or iterable) subset
    of :data:`ALL_AXES`.  Unknown axis names raise ``ValueError`` so a
    typo can never silently disable a technique.
    """
    if value is None:
        return ALL_AXES
    if isinstance(value, (frozenset, set, tuple, list)):
        names = [str(part) for part in value]
    else:
        text = str(value).strip().lower()
        if text in _ALL:
            return ALL_AXES
        if text in _NONE:
            return frozenset()
        names = text.split(",")
    axes = frozenset(
        name.strip().lower().replace("_", "-")
        for name in names
        if name.strip()
    )
    unknown = axes - ALL_AXES
    if unknown:
        raise ValueError(
            f"unknown reduction axes {sorted(unknown)}; "
            f"valid axes: {sorted(ALL_AXES)} (or 'on'/'off')"
        )
    return axes


def axes_from_env() -> FrozenSet[str]:
    """The axes selected by ``REPRO_REDUCE`` (all three when unset)."""
    return parse_axes(os.environ.get(REDUCE_ENV))


def resolve_reduce(explicit: Union[None, str, Iterable[str]] = None) -> FrozenSet[str]:
    """Resolve the active axes: explicit argument > env > default (all).

    The same precedence as the lint gate's mode resolution: a rule
    constructor's ``reduce=`` argument wins over ``REPRO_REDUCE``, which
    wins over the all-on default.
    """
    if explicit is not None:
        return parse_axes(explicit)
    return axes_from_env()


_ACTIVE: List[FrozenSet[str]] = []


def current_axes() -> FrozenSet[str]:
    """The axes in effect for the innermost active rule application.

    Falls back to the environment when no rule has pushed an explicit
    configuration, so standalone enumeration calls are reduced too.
    """
    if _ACTIVE:
        return _ACTIVE[-1]
    return axes_from_env()


@contextmanager
def reduce_active(axes: Iterable[str]):
    """Pin the active axes for the duration of a rule application."""
    _ACTIVE.append(frozenset(axes))
    try:
        yield
    finally:
        _ACTIVE.pop()


__all__ = [
    "ALL_AXES",
    "DPOR",
    "MACHINE_AXES",
    "REDUCE_ENV",
    "RG_SIMPLIFY",
    "STATIC_INDEP",
    "TRANSPO",
    "ReductionStats",
    "axes_from_env",
    "contribute",
    "current_axes",
    "merge_reduction_maps",
    "parse_axes",
    "reduce_active",
    "reduction_collector",
    "resolve_reduce",
    "state_fingerprint",
    "tally_law",
    "tally_prune",
]
