"""State-space reduction for the bounded-exhaustive game enumerator.

The enumeration core explores every scheduling of a bounded game
(:func:`repro.core.machine.enumerate_game_logs`).  Most of that work is
redundant: the profiler measured 84.3% replay-equivalent machine runs
on the Thm 2.2 soundness game.  One technique removes the
redundancy without changing any verdict: dynamic partial-order
reduction with sleep sets (:mod:`repro.reduce.dpor`).

The independence relation is the one already implicit in the push/pull
log discipline: a scheduling step that appends no shared event (a
*silent* step) reads and writes no shared state — by the lint rules
I201/I202 every shared observation emits an event and private
primitives touch only ``ctx.priv`` — so it commutes with every other
step modulo hardware-scheduling events.  Two pruning rules exploit it:
*first-branch dominance* (a silent chosen step makes every sibling
schedule equivalent to one in the chosen subtree, so the siblings are
pruned) and *sleep sets* (participants explored earlier at a decision
stay asleep in a later sibling's subtree for as long as the executed
steps are silent, so the transposed duplicates are never scheduled at
all).  Path extension and branch-point resumption are not part of the
reduction: the one game enumerator uses them with reduction on or off.

Gating: the ``REPRO_REDUCE`` boolean environment variable.  Unset or on
runs DPOR; off makes the game enumerator explore every schedule
unpruned.  The switch is the ``reduce`` field of the engine
configuration (:mod:`repro.envflags`), which the rule constructors pin
for their extent; ``repro.envflags.pinned(reduce=...)`` overrides it
for a block.

Accounting stays honest: every pruned class is tallied into a
``reduction`` provenance block (:mod:`repro.reduce.stats`) merged
through re-stamping like coverage, rendered by ``repro.obs
explain``/``dashboard`` and recorded in ledger run records.
"""

from __future__ import annotations

from .fingerprint import state_fingerprint
from .stats import (
    ReductionStats,
    contribute,
    merge_reduction_maps,
    reduction_collector,
)

__all__ = [
    "ReductionStats",
    "contribute",
    "merge_reduction_maps",
    "reduction_collector",
    "state_fingerprint",
]
