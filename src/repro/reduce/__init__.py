"""State-space reduction for the bounded-exhaustive checkers.

The enumeration core explores every scheduling of a bounded game and
every environment context of a bounded simulation.  Most of that work is
redundant: the PR 5 profiler measured 84.3% replay-equivalent machine
runs on the Thm 2.2 soundness game.  This package removes the
redundancy without changing any verdict, through four techniques:

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
    the transposed duplicates are never scheduled at all).  Path
    extension and branch-point resumption are not an axis: the one game
    enumerator uses them with every axis on or off.

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
    applying *merge-compatible-obligations*: ``Compat`` implications
    discharged structurally and refinement witness searches shared
    between identical low logs.

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

Gating: the ``REPRO_REDUCE`` boolean environment variable.  Unset or
on enables all four techniques; off disables them all, and the game
enumerator then explores every schedule unpruned.  The axes are a field
of the engine configuration (:mod:`repro.envflags`), which the rule
constructors pin for their extent; :func:`current_axes` reads the pinned
value.  ``repro.envflags.pinned(axes=...)`` is the only way to select a
subset, for ablation tests.

Accounting stays honest: every pruned-as-equivalent class, law
application and table hit is tallied into a ``reduction`` provenance
block (:mod:`repro.reduce.stats`) merged through re-stamping like
coverage, rendered by ``repro.obs explain``/``dashboard`` and recorded
in ledger run records.
"""

from __future__ import annotations

from typing import FrozenSet

from ..envflags import ALL_AXES, DPOR, RG_SIMPLIFY, STATIC_INDEP, TRANSPO, engine_config
from .fingerprint import state_fingerprint
from .stats import (
    ReductionStats,
    contribute,
    merge_reduction_maps,
    reduction_collector,
    tally_law,
    tally_prune,
)


def current_axes() -> FrozenSet[str]:
    """The axes of the pinned engine configuration (parsed from the
    environment when no rule application has pinned one, so standalone
    enumeration calls are reduced too)."""
    return engine_config().axes


__all__ = [
    "ALL_AXES",
    "DPOR",
    "RG_SIMPLIFY",
    "STATIC_INDEP",
    "TRANSPO",
    "ReductionStats",
    "contribute",
    "current_axes",
    "merge_reduction_maps",
    "reduction_collector",
    "state_fingerprint",
    "tally_law",
    "tally_prune",
]
