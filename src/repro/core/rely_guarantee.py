"""Rely and guarantee conditions as invariants over the global log.

In the paper (§3.2, Fig. 7) a layer interface is a tuple ``L[A] = (L, R,
G)``: the rely condition ``R`` specifies the set of *valid environment
contexts* and the guarantee condition ``G`` is an invariant the focused
participants' log must maintain.  Both are per-participant families of log
invariants ("these conditions are simply expressed as invariants over the
global log", §2).

An invariant is a replay fold (:class:`~repro.core.replay.ReplayFn`) with
an optional verdict on the fold's state, so it is evaluated through the
same log checkpoints as every other replay function: checking a snapshot
of a growing buffer folds only the events appended since the previous
check.  A step that meets a violating event raises
:class:`~repro.core.errors.Stuck`; the checkpoint stays at the last good
prefix, so every longer log violates the invariant too.

The ``Compat`` rule (Fig. 9) requires implications between guarantees and
relies (``L[B].R(i) ⊆ L[A].G(i)``).  In Coq these are proved once and for
all; here implication is checked over a *log universe* — every log
produced while verifying either side, plus structured adversarial logs —
and the check is recorded in the resulting certificate (see DESIGN.md §4).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from .errors import Stuck
from .log import Log


class LogInvariant:
    """A named log invariant: a replay fold and an optional verdict.

    ``holds(log)`` folds the log with ``fold(log, *params)``.  The log
    violates the invariant when the fold raises :class:`Stuck`;
    otherwise ``verdict(state)`` decides, and with no verdict the log
    holds.  ``holds`` never raises.

    ``&`` and ``|`` combine invariants; :meth:`conjuncts` lists the
    top-level ∧-parts.  Two leaves are equal when they fold the same
    replay function with equal ``params`` under the same verdict, so
    a rely and a guarantee built by separate builder calls compare
    equal, share one checkpoint per log, and match in structural
    implication whatever their names.
    """

    def __init__(
        self,
        name: str,
        fold: Callable[..., Any],
        params: Tuple[Any, ...] = (),
        verdict: Optional[Callable[[Any], bool]] = None,
    ):
        self.name = name
        self.fold = fold
        self.params = tuple(params)
        self.verdict = verdict

    def conjuncts(self) -> Tuple["LogInvariant", ...]:
        """The invariant's top-level ∧-parts (itself when atomic)."""
        return (self,)

    def holds(self, log: Log) -> bool:
        try:
            state = self.fold(log, *self.params)
        except Stuck:
            return False
        return self.verdict is None or bool(self.verdict(state))

    def _key(self) -> Tuple[Any, ...]:
        return (self.fold, self.params, self.verdict)

    def __eq__(self, other):
        if not isinstance(other, LogInvariant):
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __and__(self, other: "LogInvariant") -> "LogInvariant":
        return all_of(
            f"({self.name} ∧ {other.name})",
            self.conjuncts() + other.conjuncts(),
        )

    def __or__(self, other: "LogInvariant") -> "LogInvariant":
        return any_of(f"({self.name} ∨ {other.name})", (self, other))

    def implies_on(self, other: "LogInvariant", universe: Iterable[Log]) -> Tuple[bool, Optional[Log]]:
        """Check ``self ⊆ other`` over a finite universe of logs.

        Returns ``(True, None)`` if no counterexample was found, else
        ``(False, witness)``.
        """
        for log in universe:
            if self.holds(log) and not other.holds(log):
                return False, log
        return True, None

    def __repr__(self):
        return f"Inv({self.name})"


class _Junction(LogInvariant):
    """The conjunction (``conjunctive``) or the disjunction of ``parts``."""

    def __init__(self, name: str, conjunctive: bool, parts: Iterable[LogInvariant]):
        self.name = name
        self.conjunctive = conjunctive
        self.parts = tuple(parts)

    def conjuncts(self) -> Tuple[LogInvariant, ...]:
        return self.parts if self.conjunctive else (self,)

    def holds(self, log: Log) -> bool:
        # An explicit loop: this runs at every query point and env event,
        # where a generator under ``all``/``any`` added about 1 us a call.
        conjunctive = self.conjunctive
        for part in self.parts:
            if part.holds(log) is not conjunctive:
                return not conjunctive
        return conjunctive

    def _key(self) -> Tuple[Any, ...]:
        return (self.conjunctive, self.parts)


def all_of(name: str, parts: Iterable[LogInvariant]) -> LogInvariant:
    """The conjunction of ``parts``, flattened to their conjuncts."""
    return _Junction(name, True, (c for part in parts for c in part.conjuncts()))


def any_of(name: str, parts: Iterable[LogInvariant]) -> LogInvariant:
    """The disjunction of ``parts``."""
    return _Junction(name, False, parts)


#: The empty conjunction, which every log satisfies.
TRUE_INV = all_of("true", ())
#: The empty disjunction, which no log satisfies.
FALSE_INV = any_of("false", ())


def structurally_implies(antecedent: LogInvariant, consequent: LogInvariant) -> bool:
    """``antecedent ⊆ consequent`` by structure, without a universe scan.

    True when every conjunct of the consequent equals some conjunct of
    the antecedent.  Leaves are equal when they fold the same replay
    function with equal parameters under the same verdict; names play
    no part.  The empty conjunction (``TRUE_INV``) is implied by
    anything.
    """
    parts = antecedent.conjuncts()
    return all(part in parts for part in consequent.conjuncts())


class Rely:
    """The rely condition: per-participant validity of environment events.

    ``conditions[i]`` constrains the events participant ``i`` may
    contribute when it is part of the environment.  Participants without
    an entry are unconstrained (``TRUE_INV``).  Extra structured fields
    capture the temporal conditions the paper imposes on environment
    contexts:

    * ``fairness_bound`` — the (hardware or software) scheduler is fair:
      any participant is scheduled within ``m`` environment steps (§4.1).
    * ``release_bound`` — definite action: a participant that acquired a
      lock releases it within ``n`` of its own steps (§2: "the held locks
      will eventually be released").
    """

    def __init__(
        self,
        conditions: Optional[Dict[int, LogInvariant]] = None,
        fairness_bound: Optional[int] = None,
        release_bound: Optional[int] = None,
    ):
        self.conditions: Dict[int, LogInvariant] = dict(conditions or {})
        self.fairness_bound = fairness_bound
        self.release_bound = release_bound

    def condition(self, tid: int) -> LogInvariant:
        return self.conditions.get(tid, TRUE_INV)

    def holds(self, log: Log) -> bool:
        """All per-participant conditions hold of the log."""
        return all(inv.holds(log) for inv in self.conditions.values())

    def intersect(self, other: "Rely") -> "Rely":
        """Pointwise conjunction — ``L[A∪B].R = L[A].R ∩ L[B].R`` (Compat)."""
        tids = set(self.conditions) | set(other.conditions)
        merged = {t: self.condition(t) & other.condition(t) for t in tids}
        return Rely(
            merged,
            fairness_bound=_min_opt(self.fairness_bound, other.fairness_bound),
            release_bound=_min_opt(self.release_bound, other.release_bound),
        )

    def __repr__(self):
        return f"Rely({sorted(self.conditions)}, fair≤{self.fairness_bound}, rel≤{self.release_bound})"


class Guarantee:
    """The guarantee condition: per-participant invariants on own events.

    ``events``, when given, declares the closed set of event names the
    focused participants may append; the static analysis pass checks
    every statically reachable emit site against it (rely/guarantee
    lint, rule REPRO-I203).  ``None`` means undeclared — the lint rule
    stays silent.
    """

    def __init__(
        self,
        conditions: Optional[Dict[int, LogInvariant]] = None,
        events: Optional[Iterable[str]] = None,
    ):
        self.conditions: Dict[int, LogInvariant] = dict(conditions or {})
        self.events: Optional[frozenset] = (
            None if events is None else frozenset(events)
        )

    def condition(self, tid: int) -> LogInvariant:
        return self.conditions.get(tid, TRUE_INV)

    def holds(self, log: Log, tid: int) -> bool:
        return self.condition(tid).holds(log)

    def union(self, other: "Guarantee") -> "Guarantee":
        """Pointwise union — ``L[A∪B].G = L[A].G ∪ L[B].G`` (Compat)."""
        tids = set(self.conditions) | set(other.conditions)
        merged = {}
        for t in tids:
            mine = self.conditions.get(t)
            theirs = other.conditions.get(t)
            if mine is None:
                merged[t] = theirs
            elif theirs is None:
                merged[t] = mine
            else:
                merged[t] = mine | theirs
        if self.events is None or other.events is None:
            events = None  # one side undeclared -> union is undeclared
        else:
            events = self.events | other.events
        return Guarantee(merged, events=events)

    def restrict(self, tids: Iterable[int]) -> "Guarantee":
        """``L[c].G|Ta`` — keep only the focused participants' guarantees."""
        wanted = set(tids)
        return Guarantee(
            {t: inv for t, inv in self.conditions.items() if t in wanted},
            events=self.events,
        )

    def __repr__(self):
        return f"Guar({sorted(self.conditions)})"


def _min_opt(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def check_compat(
    rely_a: Rely,
    guar_a: Guarantee,
    tids_a: Iterable[int],
    rely_b: Rely,
    guar_b: Guarantee,
    tids_b: Iterable[int],
    universe: Iterable[Log],
) -> List[str]:
    """Check the premises of the ``Compat`` rule over a log universe.

    ``∀i ∈ A, L[B].R(i) ⊆ L[A].G(i)`` and symmetrically.  Returns a list
    of failure descriptions (empty = compatible on the universe).

    Implications that hold *structurally* (every conjunct of the
    guarantee is a conjunct of the rely — :func:`structurally_implies`)
    are discharged without scanning the universe; a structural
    implication holds on every universe, so the result is the scan's.
    """
    universe = list(universe)
    failures: List[str] = []

    def implies(antecedent: LogInvariant, consequent: LogInvariant):
        if structurally_implies(antecedent, consequent):
            return True, None
        return antecedent.implies_on(consequent, universe)

    for i in tids_a:
        ok, witness = implies(rely_b.condition(i), guar_a.condition(i))
        if not ok:
            failures.append(
                f"L[B].R({i}) ⊄ L[A].G({i}); counterexample log: {witness!r}"
            )
    for i in tids_b:
        ok, witness = implies(rely_a.condition(i), guar_b.condition(i))
        if not ok:
            failures.append(
                f"L[A].R({i}) ⊄ L[B].G({i}); counterexample log: {witness!r}"
            )
    return failures
