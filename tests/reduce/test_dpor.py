"""The reducing scheduler: dominance and sleep sets."""

import pytest

from repro.core import (
    LayerInterface,
    behavior_logs,
    enumerate_game_logs,
    seq_player,
    shared_prim,
)
from repro.envflags import pinned
from repro.reduce import reduction_collector
from repro.reduce.fingerprint import state_fingerprint


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


def enumerate_with(reduce, players, jobs=None):
    """Enumerate with reduction on or off, returning (results, stats)."""
    with pinned(jobs=jobs, reduce=reduce), reduction_collector() as stats:
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
        off, _ = enumerate_with(False, self.players())
        on, stats = enumerate_with(True, self.players())
        assert set(behaviors(on)) == set(behaviors(off))
        assert stats.pruned.get("dpor")

    def test_fewer_runs(self):
        off, _ = enumerate_with(False, self.players())
        on, _ = enumerate_with(True, self.players())
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
        off, _ = enumerate_with(False, self.players())
        on, stats = enumerate_with(True, self.players())
        distinct = set(behaviors(off))
        assert set(behaviors(on)) == distinct
        # Off-mode explores one run per schedule (3: the silent step
        # commutes); sleep sets explore exactly one per behavior.
        assert len(off) > len(distinct)
        assert len(on) == len(distinct)
        # The participant kept asleep across the silent step is tallied.
        assert stats.pruned.get("sleep")


class TestDeterminism:
    def players(self):
        return {
            1: (seq_player([("bump", ()), ("skip", ())]), ()),
            2: (seq_player([("skip", ()), ("bump", ())]), ()),
        }

    @pytest.mark.parametrize("reduce", [True, False], ids=["on", "off"])
    def test_repeat_runs_identical(self, reduce):
        first, _ = enumerate_with(reduce, self.players())
        second, _ = enumerate_with(reduce, self.players())
        assert [r.schedule for r in first] == [r.schedule for r in second]
        assert [r.log for r in first] == [r.log for r in second]
        assert [r.rets for r in first] == [r.rets for r in second]

    @pytest.mark.parametrize("reduce", [True, False], ids=["on", "off"])
    def test_worker_count_invariant(self, reduce):
        serial, serial_stats = enumerate_with(reduce, self.players(), jobs=1)
        parallel, parallel_stats = enumerate_with(
            reduce, self.players(), jobs=2
        )
        assert [r.schedule for r in parallel] == [r.schedule for r in serial]
        assert [r.log for r in parallel] == [r.log for r in serial]
        assert [r.rets for r in parallel] == [r.rets for r in serial]
        assert parallel_stats.as_dict() == serial_stats.as_dict()

    def test_distinct_behavior_count_matches_seed(self):
        off, _ = enumerate_with(False, self.players())
        on, _ = enumerate_with(True, self.players())
        assert len(behavior_logs(on)) == len(behavior_logs(off))


class TestFingerprint:
    def test_state_fingerprint_components(self):
        key = state_fingerprint(1, ((1, 2),), frozenset({1}))
        assert key == state_fingerprint(1, ((1, 2),), frozenset({1}))
        assert key != state_fingerprint(1, ((1, 3),), frozenset({1}))
        assert state_fingerprint(1, (), frozenset(), frozenset({2})) != \
            state_fingerprint(1, (), frozenset(), frozenset())
