"""The rg-simplify law catalog: structural implication."""

from repro.core import LogInvariant
from repro.core.rely_guarantee import FALSE_INV, TRUE_INV
from repro.reduce.laws import structurally_implies

from count_invariants import count_inv, event_count


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
