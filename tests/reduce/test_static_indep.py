"""The ``static-indep`` axis: invisible players defer, outcomes survive.

A player whose statically-declared calls are all *invisible* (exact
slice, no emits, no queries, no shared-state interaction) executes as
one purely local step; the scheduler need not branch its siblings at
decision points where it is merely a candidate.  The contract mirrors
the other axes: fewer runs, identical distinct outcomes, honest
per-axis accounting.
"""

from __future__ import annotations

import pytest

from repro.core import (
    LayerInterface,
    call_player,
    enumerate_game_logs,
    shared_prim,
)
from repro.core.interface import private_prim
from repro.analysis.independence import (
    prim_invisible,
    static_invisible_tids,
)
from repro.envflags import pinned
from repro.reduce import (
    ALL_AXES,
    DPOR,
    STATIC_INDEP,
    TRANSPO,
    reduction_collector,
)


def ping_spec(ctx):
    yield from ctx.query()
    ctx.emit("ping", ctx.tid)
    return None


def bump(ctx):
    # Purely local: no emit, no query, no shared state.
    priv = ctx.priv or 0
    return priv + 1


def game_interface():
    return LayerInterface(
        "Toy",
        [1, 2, 3],
        {
            "ping": shared_prim("ping", ping_spec),
            "bump": private_prim("bump", bump),
        },
    )


def players():
    return {
        1: (call_player("ping"), ()),
        2: (call_player("ping"), ()),
        3: (call_player("bump"), ()),
    }


def enumerate_with(axes, jobs=None):
    with pinned(jobs=jobs, axes=axes), reduction_collector(
        frozenset(axes)
    ) as stats:
        results = enumerate_game_logs(game_interface(), players(), max_rounds=12)
    return results, stats


def outcomes(results):
    return sorted(
        set(
            (
                tuple((e.tid, e.name) for e in r.log.without_sched()),
                repr(sorted(r.rets.items())),
            )
            for r in results
        )
    )


class TestClassification:
    def test_private_local_prim_is_invisible(self):
        assert prim_invisible(game_interface(), "bump")

    def test_emitting_prim_is_visible(self):
        assert not prim_invisible(game_interface(), "ping")

    def test_invisible_tids(self):
        assert static_invisible_tids(game_interface(), players()) == {3}

    def test_handwritten_player_is_conservatively_visible(self):
        def handwritten(ctx):
            yield from ctx.call("bump")
            return None

        mixed = dict(players())
        mixed[3] = (handwritten, ())
        assert static_invisible_tids(game_interface(), mixed) == frozenset()


class TestPruningAndParity:
    def test_fewer_runs_same_outcomes(self):
        base, _ = enumerate_with(())
        reduced, stats = enumerate_with({STATIC_INDEP})
        assert len(reduced) < len(base)
        assert outcomes(reduced) == outcomes(base)
        assert stats.as_dict()["pruned"].get(STATIC_INDEP, 0) > 0

    def test_composes_with_other_axes(self):
        base, _ = enumerate_with(())
        full, stats = enumerate_with(ALL_AXES)
        assert outcomes(full) == outcomes(base)
        assert len(full) <= len(base)

    def test_dpor_alone_keeps_outcomes(self):
        base, _ = enumerate_with(())
        dpor, _ = enumerate_with({DPOR, TRANSPO})
        assert outcomes(dpor) == outcomes(base)

    def test_no_invisible_players_is_exact_noop(self):
        visible = {
            1: (call_player("ping"), ()),
            2: (call_player("ping"), ()),
        }
        with pinned(axes=frozenset()):
            base = enumerate_game_logs(
                game_interface(), dict(visible), max_rounds=12
            )
        with pinned(axes={STATIC_INDEP}), reduction_collector(
            frozenset({STATIC_INDEP})
        ) as stats:
            reduced = enumerate_game_logs(
                game_interface(), dict(visible), max_rounds=12
            )
        assert len(reduced) == len(base)
        assert outcomes(reduced) == outcomes(base)
        assert not stats.as_dict().get("pruned")

    def test_parallel_split_agrees_with_serial(self):
        serial, _ = enumerate_with({STATIC_INDEP})
        split, _ = enumerate_with({STATIC_INDEP}, jobs=2)
        assert outcomes(split) == outcomes(serial)
        assert len(split) == len(serial)
