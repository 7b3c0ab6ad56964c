"""The lint rule catalog and its version.

Every static check the analysis pass can perform is declared here as a
:class:`LintRule` with a stable id, a severity, and a one-line
explanation.  Rule ids are grouped by family:

* ``REPRO-L1xx`` — layer discipline: the structural well-formedness of a
  ``L1[A] ⊢_R M : L2[A]`` rule application (underlay coverage, arity,
  overlay specs, event producibility, atomicity shape).
* ``REPRO-I2xx`` — interface discipline: per-primitive event etiquette
  (shared primitives must emit, no raw log-buffer access, guarantees
  cover emit sites).
* ``REPRO-N3xx`` — determinism: sources of nondeterminism that break
  log replay (wall clocks, RNGs, ``id()``, unordered set iteration).
* ``REPRO-R4xx`` — replay purity: replay functions must be closed over
  the log argument and immutable constants only, and their steps must
  not mutate the state they are given.

``RULESET_VERSION`` names the semantics of this catalog and is folded
into the certificate-cache engine version
(:mod:`repro.parallel.cache`), so certificates produced under an older
rule set are invalidated.  Bump it whenever a rule is added, removed,
or its detection logic changes in a way that can change findings.

This module imports nothing from the rest of the package (or from
:mod:`repro.core`): it must stay importable from
:mod:`repro.parallel.cache` without creating an import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: Version of the lint rule set, folded into the cache engine version.
RULESET_VERSION = "repro-lint/3"

ERROR = "error"
WARNING = "warning"

_SEVERITIES = (ERROR, WARNING)


@dataclass(frozen=True)
class LintRule:
    """One rule of the static analysis pass."""

    rule_id: str
    severity: str
    title: str
    description: str

    def __post_init__(self):
        if self.severity not in _SEVERITIES:
            raise ValueError(f"unknown severity: {self.severity}")

    def __repr__(self):
        return f"LintRule({self.rule_id}:{self.severity})"


def _catalog(*rules: LintRule) -> Dict[str, LintRule]:
    return {rule.rule_id: rule for rule in rules}


RULES: Dict[str, LintRule] = _catalog(
    # --- layer discipline (module vs. underlay/overlay) --------------------
    LintRule(
        "REPRO-L101", ERROR, "unknown underlay primitive",
        "A module function calls a primitive that does not exist in the "
        "declared underlay interface; the player would get Stuck at run "
        "time on every path reaching the call.",
    ),
    LintRule(
        "REPRO-L102", ERROR, "primitive arity mismatch",
        "A call passes a number of arguments the underlay primitive's "
        "specification cannot accept (checked against the spec's "
        "signature; variadic specs only bound the minimum).",
    ),
    LintRule(
        "REPRO-L103", ERROR, "missing overlay specification",
        "A module function has no specification in the declared overlay "
        "interface, so no Fun/Fun* judgment about it can be formed.",
    ),
    LintRule(
        "REPRO-L104", ERROR, "spec event not producible by implementation",
        "Under an event-preserving relation, the overlay specification "
        "emits an event name the implementation can never produce "
        "through its underlay calls — the simulation is refuted "
        "statically (e.g. a release that never pushes).",
    ),
    LintRule(
        "REPRO-L105", ERROR, "non-atomic multi-emit implementation",
        "Under an event-preserving relation, the overlay specification "
        "emits two or more events atomically (no query point between "
        "them) but the implementation performs two or more event-"
        "producing underlay calls outside critical state, so the "
        "environment can interleave between them.",
    ),
    LintRule(
        "REPRO-L106", WARNING, "shared-footprint primitives may interleave",
        "Two shared primitives of one interface can emit overlapping "
        "event names without entering critical state; their steps can "
        "interleave freely, so any ordering invariant between those "
        "event names must be argued dynamically rather than by the "
        "atomicity bracket (interprocedural footprint analysis).",
    ),
    # --- interface discipline ----------------------------------------------
    LintRule(
        "REPRO-I201", ERROR, "event-discipline violation",
        "A shared or atomic primitive's specification can never append "
        "to the log (a shared mutation with no observable event), or a "
        "private primitive emits events (private primitives are silent "
        "by definition, paper §3.1).",
    ),
    LintRule(
        "REPRO-I202", WARNING, "direct log-buffer access",
        "A specification or implementation touches ctx.buffer directly "
        "instead of going through ctx.emit/ctx.log; raw buffer access "
        "bypasses event interning and the replay discipline.",
    ),
    LintRule(
        "REPRO-I203", ERROR, "guarantee does not cover emit site",
        "The interface's guarantee declares an event set, but a "
        "primitive can emit an event name outside it — the declared "
        "guarantee cannot be an invariant of the focused participants' "
        "log (rely/guarantee lint).",
    ),
    LintRule(
        "REPRO-I204", WARNING, "guarantee spans a may-race pair",
        "The interface's guarantee declares event names that two "
        "unbracketed shared primitives can both emit: the guarantee is "
        "then a cross-primitive invariant over racing emitters, which "
        "rely/guarantee reasoning must discharge for every interleaving "
        "of the pair — a common source of unsound hand-written "
        "guarantees (interprocedural footprint analysis).",
    ),
    # --- determinism ---------------------------------------------------------
    LintRule(
        "REPRO-N301", ERROR, "nondeterminism source",
        "Specification or implementation code reads a nondeterminism "
        "source (time, random, uuid, secrets, id(), input(), ambient "
        "globals()/vars()); replayed runs would diverge from recorded "
        "logs.",
    ),
    LintRule(
        "REPRO-N302", WARNING, "unordered set iteration",
        "Code iterates over a freshly-built set; set iteration order "
        "is not a function of the log, so any branch or emission fed "
        "by it is replay-hostile.  Sort, or iterate a tuple.",
    ),
    # --- replay purity --------------------------------------------------------
    LintRule(
        "REPRO-R401", ERROR, "replay function closes over mutable state",
        "A replay function's init/step closure captures a mutable "
        "object; replaying the same log twice could observe different "
        "states, breaking the log-determines-state contract (§2).",
    ),
    LintRule(
        "REPRO-R402", ERROR, "replay function reads nondeterminism source",
        "A replay function's init/step reads time/random/id()/...; the "
        "fold over the same log would not be a function of the log.",
    ),
    LintRule(
        "REPRO-R403", WARNING, "replay function has mutable default argument",
        "A replay init/step declares a list/dict/set default argument; "
        "mutation across calls would leak state between replays.",
    ),
    LintRule(
        "REPRO-R404", ERROR, "replay step mutates its state argument",
        "A replay step mutates the state it was given (a mutating method "
        "call such as append/pop/update, item or attribute assignment, "
        "or del) instead of returning a new state.  Replay folds are "
        "memoized incrementally: the given state is the checkpoint "
        "later queries resume from and a result earlier callers hold, "
        "so mutating it would change verdicts.",
    ),
)


def rule(rule_id: str) -> LintRule:
    """Look up one rule by id (raises ``KeyError`` on unknown ids)."""
    return RULES[rule_id]


def rule_table() -> Tuple[Tuple[str, str, str], ...]:
    """``(rule_id, severity, title)`` rows, sorted by id — for docs/CLI."""
    return tuple(
        (r.rule_id, r.severity, r.title)
        for r in sorted(RULES.values(), key=lambda r: r.rule_id)
    )
