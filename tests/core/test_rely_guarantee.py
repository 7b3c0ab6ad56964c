"""Rely/guarantee conditions as log invariants."""

import pytest

from repro.core import (
    Event,
    FALSE_INV,
    Guarantee,
    Log,
    LogBuffer,
    LogInvariant,
    Rely,
    ReplayFn,
    Stuck,
    TRUE_INV,
    check_compat,
)
from repro.core.rely_guarantee import structurally_implies

from count_invariants import count_inv, event_count


def log_of(*specs):
    return Log([Event(tid, name) for tid, name in specs])


class TestLogInvariant:
    def test_basic(self):
        inv = count_inv("has_a", "a", lambda count: count > 0)
        assert inv.holds(log_of((1, "a")))
        assert not inv.holds(Log())

    def test_stuck_fold_violates_every_longer_log(self):
        def step(state, event):
            if event.name == "bad":
                raise Stuck("bad event")
            return state

        inv = LogInvariant("no_bad", ReplayFn("no_bad", lambda: None, step))
        buffer = LogBuffer([Event(1, "a")])
        assert inv.holds(buffer.snapshot())
        buffer.append(Event(2, "bad"))
        assert not inv.holds(buffer.snapshot())
        buffer.append(Event(1, "a"))
        assert not inv.holds(buffer.snapshot())

    def test_conjunction(self):
        both = TRUE_INV & FALSE_INV
        assert not both.holds(Log())
        assert (TRUE_INV & TRUE_INV).holds(Log())

    def test_disjunction(self):
        assert (TRUE_INV | FALSE_INV).holds(Log())
        assert not (FALSE_INV | FALSE_INV).holds(Log())

    def test_implies_on_universe(self):
        narrow = count_inv("len<2", None, lambda length: length < 2)
        wide = count_inv("len<5", None, lambda length: length < 5)
        universe = [Log(), log_of((1, "a")), log_of((1, "a"), (2, "b"))]
        ok, witness = narrow.implies_on(wide, universe)
        assert ok and witness is None
        ok, witness = wide.implies_on(narrow, universe)
        assert not ok
        assert len(witness) == 2


class TestRely:
    def test_default_unconstrained(self):
        assert Rely().condition(5) is TRUE_INV

    def test_holds_all(self):
        rely = Rely({1: FALSE_INV})
        assert not rely.holds(Log())

    def test_intersect_conjunction(self):
        r1 = Rely({1: count_inv("a", "a", lambda count: count > 0)},
                  fairness_bound=5)
        r2 = Rely({1: count_inv("b", "b", lambda count: count > 0)},
                  fairness_bound=3)
        merged = r1.intersect(r2)
        assert merged.fairness_bound == 3
        assert not merged.condition(1).holds(log_of((1, "a")))
        assert merged.condition(1).holds(log_of((1, "a"), (1, "b")))


class TestGuarantee:
    def test_union_pointwise(self):
        g1 = Guarantee({1: FALSE_INV})
        g2 = Guarantee({1: TRUE_INV, 2: TRUE_INV})
        union = g1.union(g2)
        assert union.holds(Log(), 1)  # FALSE ∨ TRUE
        assert union.holds(Log(), 2)

    def test_restrict(self):
        g = Guarantee({1: FALSE_INV, 2: FALSE_INV})
        restricted = g.restrict([1])
        assert 2 not in restricted.conditions
        assert 1 in restricted.conditions


class TestCompat:
    def test_compatible(self):
        rely = Rely({1: TRUE_INV, 2: TRUE_INV})
        guar = Guarantee({1: TRUE_INV, 2: TRUE_INV})
        failures = check_compat(rely, guar, [1], rely, guar, [2], [Log()])
        assert failures == []

    def test_incompatible_reports_witness(self):
        rely = Rely({1: TRUE_INV})
        guar = Guarantee({1: FALSE_INV})
        failures = check_compat(rely, guar, [1], rely, guar, [2], [Log()])
        assert failures


def at_most(name, bound):
    return count_inv(f"≤{bound} {name}", name, lambda count: count <= bound)


class TestStructurallyImplies:
    def test_identity(self):
        inv = at_most("x", 1)
        assert structurally_implies(inv, inv)

    def test_true_consequent(self):
        assert structurally_implies(at_most("x", 1), TRUE_INV)
        assert structurally_implies(FALSE_INV, TRUE_INV)
        assert not structurally_implies(TRUE_INV, FALSE_INV)

    def test_conjunct_member(self):
        x, y = at_most("x", 1), at_most("y", 2)
        assert structurally_implies(x & y, x)
        assert structurally_implies(x & y, y)
        assert structurally_implies(x & y, y & x)
        assert not structurally_implies(x, x & y)

    def test_equal_leaves_built_apart(self):
        """Leaves with the same fold, params and verdict are one invariant,
        whatever their names."""
        def positive(count):
            return count > 0

        a = LogInvariant("a", event_count, ("x", None), verdict=positive)
        b = LogInvariant("b", event_count, ("x", None), verdict=positive)
        assert structurally_implies(a & at_most("y", 2), b)

    def test_name_alone_does_not_imply(self):
        a = LogInvariant("same", event_count, ("x", None))
        b = LogInvariant("same", event_count, ("y", None))
        assert not structurally_implies(a, b)
        assert not structurally_implies(a, at_most("x", 1))

    def test_unrelated_not_implied(self):
        assert not structurally_implies(at_most("x", 1), at_most("y", 2))
