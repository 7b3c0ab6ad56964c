"""The reducing scheduler: dominance, sleep sets, transposition table."""

import pytest

from repro.core import (
    LayerInterface,
    behavior_logs,
    enumerate_game_logs,
    seq_player,
    shared_prim,
)
from repro.envflags import pinned
from repro.reduce import (
    DPOR,
    TRANSPO,
    reduction_collector,
)
from repro.reduce.fingerprint import extend_chain, state_fingerprint


def bump_spec(ctx):
    yield from ctx.query()
    count = ctx.log.count("bump") + 1
    ctx.emit("bump", ret=count)
    return count


def silent_spec(ctx):
    # A step that appends no event: by I201/I202 it touches no shared
    # state, so it commutes with every other step.
    return None
    yield


def game_interface():
    return LayerInterface(
        "Toy",
        [1, 2],
        {
            "bump": shared_prim("bump", bump_spec),
            "skip": shared_prim("skip", silent_spec),
        },
    )


def enumerate_with(axes, players, jobs=None):
    """Enumerate under explicit axes, returning (results, stats)."""
    with pinned(jobs=jobs, axes=axes), reduction_collector(axes) as stats:
        results = enumerate_game_logs(game_interface(), players, max_rounds=12)
    return results, stats


def behaviors(results):
    return sorted(
        (
            tuple((e.tid, e.name) for e in r.log.without_sched()),
            repr(sorted(r.rets.items())),
        )
        for r in results
    )


class TestDominance:
    """A silent chosen step prunes its sibling branches."""

    def players(self):
        return {
            1: (seq_player([("skip", ()), ("bump", ())]), ()),
            2: (seq_player([("bump", ())]), ()),
        }

    def test_behaviors_preserved(self):
        off, _ = enumerate_with(frozenset(), self.players())
        on, stats = enumerate_with({DPOR}, self.players())
        assert set(behaviors(on)) == set(behaviors(off))
        assert stats.pruned.get(DPOR)

    def test_fewer_runs(self):
        off, _ = enumerate_with(frozenset(), self.players())
        on, _ = enumerate_with({DPOR}, self.players())
        assert len(on) < len(off)


class TestSleepSets:
    """Earlier-explored siblings stay asleep across silent steps, so the
    transposed duplicate schedules are never generated."""

    def players(self):
        return {
            1: (seq_player([("bump", ())]), ()),
            2: (seq_player([("skip", ()), ("bump", ())]), ()),
        }

    def test_duplicates_eliminated(self):
        off, _ = enumerate_with(frozenset(), self.players())
        on, _ = enumerate_with({DPOR}, self.players())
        distinct = set(behaviors(off))
        assert set(behaviors(on)) == distinct
        # Off-mode explores one run per schedule (3: the silent step
        # commutes); sleep sets explore exactly one per behavior.
        assert len(off) > len(distinct)
        assert len(on) == len(distinct)


class TestTransposition:
    """Runs converging on an already-visited state are cut."""

    def players(self):
        return {
            1: (seq_player([("skip", ()), ("bump", ())]), ()),
            2: (seq_player([("bump", ())]), ()),
        }

    def test_behaviors_preserved_and_table_hit(self):
        off, _ = enumerate_with(frozenset(), self.players())
        on, stats = enumerate_with({TRANSPO}, self.players())
        assert set(behaviors(on)) == set(behaviors(off))
        assert stats.table_hits >= 1
        # The table is scoped per frontier subtree, so cross-subtree
        # duplicates survive — but within-subtree convergence is cut.
        assert len(on) < len(off)


class TestDeterminism:
    def players(self):
        return {
            1: (seq_player([("bump", ()), ("skip", ())]), ()),
            2: (seq_player([("skip", ()), ("bump", ())]), ()),
        }

    @pytest.mark.parametrize("axes", [{DPOR}, {TRANSPO}, {DPOR, TRANSPO}])
    def test_repeat_runs_identical(self, axes):
        first, _ = enumerate_with(axes, self.players())
        second, _ = enumerate_with(axes, self.players())
        assert [r.schedule for r in first] == [r.schedule for r in second]
        assert [r.log for r in first] == [r.log for r in second]
        assert [r.rets for r in first] == [r.rets for r in second]

    @pytest.mark.parametrize("axes", [{DPOR}, {TRANSPO}, {DPOR, TRANSPO}])
    def test_worker_count_invariant(self, axes):
        serial, _ = enumerate_with(axes, self.players(), jobs=1)
        parallel, _ = enumerate_with(axes, self.players(), jobs=2)
        assert [r.schedule for r in parallel] == [r.schedule for r in serial]
        assert [r.log for r in parallel] == [r.log for r in serial]
        assert [r.rets for r in parallel] == [r.rets for r in serial]

    def test_distinct_behavior_count_matches_seed(self):
        off, _ = enumerate_with(frozenset(), self.players())
        on, _ = enumerate_with({DPOR, TRANSPO}, self.players())
        assert len(behavior_logs(on)) == len(behavior_logs(off))


class TestFingerprint:
    def test_equal_sequences_equal_chains(self):
        a = extend_chain(extend_chain(0, "x"), "y")
        b = extend_chain(extend_chain(0, "x"), "y")
        assert a == b

    def test_order_sensitive(self):
        ab = extend_chain(extend_chain(0, "a"), "b")
        ba = extend_chain(extend_chain(0, "b"), "a")
        assert ab != ba

    def test_state_fingerprint_components(self):
        key = state_fingerprint(1, ((1, 2),), frozenset({1}))
        assert key == state_fingerprint(1, ((1, 2),), frozenset({1}))
        assert key != state_fingerprint(1, ((1, 3),), frozenset({1}))
        # The sleep set is part of the transposition key: a revisit
        # with a smaller sleep set owes schedules the first visit
        # suppressed, so it must not be cut.
        assert state_fingerprint(1, (), frozenset(), frozenset({2})) != \
            state_fingerprint(1, (), frozenset(), frozenset())
