"""The rely-guarantee law catalog (``rg-simplify``).

Small algebraic laws, in the style of the rely-guarantee refinement
calculi (Hayes/Meinicke — *Deriving Laws for Developing Concurrent
Programs in a Rely-Guarantee Style*; *Generalised rely-guarantee
concurrency: An algebraic foundation*), that discharge or fuse
obligations before any machine run.  Each law application is tallied
(:func:`repro.reduce.stats.tally_law`) under its catalog name:

``merge-compatible-obligations``
    ``Compat`` implications ``R(i) ⊆ G(i)`` are discharged without a
    log-universe scan when they hold structurally
    (:func:`structurally_implies`), and refinement witness searches are
    shared between low-level runs with identical sched-erased logs
    (:func:`repro.core.contextual.check_refinement`).

Structural implication compares conjuncts by their replay fold,
parameters and verdict, never by name, so it rests on no declaration.
``REPRO_REDUCE=off`` restores the exhaustive checks.

Rely and guarantee checks need no law: an invariant is a replay fold
(:class:`~repro.core.rely_guarantee.LogInvariant`), so its exact check
on a growing log is already incremental.
"""

from __future__ import annotations

MERGE_COMPATIBLE = "merge-compatible-obligations"


def structurally_implies(antecedent, consequent) -> bool:
    """``antecedent ⊆ consequent`` by structure, without a universe scan.

    True when every conjunct of the consequent equals some conjunct of
    the antecedent.  Leaves are equal when they fold the same replay
    function with equal parameters under the same verdict; names play
    no part.  The empty conjunction (``TRUE_INV``) is implied by
    anything.
    """
    parts = antecedent.conjuncts()
    return all(part in parts for part in consequent.conjuncts())
