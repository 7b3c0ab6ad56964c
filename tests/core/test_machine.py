"""The layer machine: local runs, games, behaviour enumeration."""

import pytest

from repro.core import (
    ChoiceEnv,
    Event,
    Guarantee,
    LayerInterface,
    NullEnv,
    OutOfFuel,
    RoundRobinScheduler,
    ScriptedEnv,
    ScriptScheduler,
    StrategyEnv,
    Stuck,
    behavior_logs,
    call_player,
    enumerate_game_logs,
    prim_player,
    run_game,
    run_local,
    sample_game_logs,
    seq_player,
    shared_prim,
    simple_event_prim,
)
from repro.core.environment import round_robin_schedule
from repro.core.rely_guarantee import Rely
from repro.core.log import Log
from repro.core.simulation import env_events_valid

from count_invariants import count_inv


def counter_interface(domain=(1, 2)):
    """A shared counter: ``bump() -> new count`` (counting own bumps +
    env bumps seen in the log)."""

    def bump_spec(ctx):
        yield from ctx.query()
        count = ctx.log.count("bump") + 1
        ctx.emit("bump", ret=count)
        return count

    return LayerInterface(
        "Counter", domain, {"bump": shared_prim("bump", bump_spec)}
    )


class TestRunLocal:
    def test_sequential_run(self):
        iface = counter_interface()
        run = run_local(iface, 1, seq_player([("bump", ()), ("bump", ())]))
        assert run.ok
        assert run.ret == [1, 2]
        assert [e.name for e in run.log] == ["bump", "bump"]

    def test_env_events_delivered_at_queries(self):
        iface = counter_interface()
        env = ScriptedEnv([(Event(2, "bump"),)])
        run = run_local(iface, 1, call_player("bump"), env=env)
        assert run.ret == 2  # env bump arrived before ours
        assert run.log[0].tid == 2

    def test_stuck_reported(self):
        def bad_spec(ctx):
            raise Stuck("broken")
            yield

        iface = LayerInterface("Bad", [1], {"boom": shared_prim("boom", bad_spec)})
        run = run_local(iface, 1, call_player("boom"))
        assert not run.ok
        assert "broken" in run.stuck

    def test_fuel_exhaustion_is_stuck(self):
        def spin(ctx):
            while True:
                ctx.consume_fuel()
                yield from ctx.query()

        iface = LayerInterface("Spin", [1], {"spin": shared_prim("spin", spin)})
        run = run_local(iface, 1, call_player("spin"), fuel=50)
        assert not run.ok
        assert "fuel" in run.stuck

    def test_undefined_primitive_stuck(self):
        iface = counter_interface()
        run = run_local(iface, 1, call_player("nope"))
        assert not run.ok

    def test_guarantee_checked(self):
        iface = counter_interface().with_guar(
            Guarantee({1: count_inv("≤1 bump", "bump", lambda count: count <= 1)})
        )
        good = run_local(iface, 1, call_player("bump"))
        assert good.guar_ok
        bad = run_local(iface, 1, seq_player([("bump", ()), ("bump", ())]))
        assert not bad.guar_ok

    def test_queries_counted(self):
        iface = counter_interface()
        run = run_local(iface, 1, seq_player([("bump", ()), ("bump", ())]))
        assert run.queries == 2

    def test_cycles_charged(self):
        iface = counter_interface()
        run = run_local(iface, 1, call_player("bump"))
        assert run.cycles >= 1


class TestEnvContexts:
    def test_null_env(self):
        iface = counter_interface()
        run = run_local(iface, 1, call_player("bump"), env=NullEnv())
        assert run.ret == 1

    def test_scripted_env_exhausts_to_idle(self):
        iface = counter_interface()
        env = ScriptedEnv([(Event(2, "bump"),)])
        run = run_local(iface, 1, seq_player([("bump", ()), ("bump", ())]), env=env)
        assert run.ret == [2, 3]

    def test_choice_env_reports_exhaustion(self):
        env = ChoiceEnv([(Event(2, "bump"),)], choices=())
        from repro.core import LogBuffer

        buffer = LogBuffer()
        assert env.advance(buffer, 1) == ()
        assert env.exhausted_at == 0

    def test_strategy_env_runs_strategies(self):
        iface = counter_interface()
        env = StrategyEnv(
            strategies={2: lambda log: (Event(2, "bump"),)},
            schedule=round_robin_schedule([2, 1]),
        )
        run = run_local(iface, 1, call_player("bump"), env=env)
        assert run.ok

    def test_env_events_valid(self):
        rely = Rely({2: count_inv("no_bump", "bump", lambda count: count == 0, tid=2)})
        good = Log([Event(2, "other")])
        bad = Log([Event(2, "bump")])
        assert env_events_valid(good, rely, {2})
        assert not env_events_valid(bad, rely, {2})


class TestGames:
    def players(self):
        return {
            1: (seq_player([("bump", ()), ("bump", ())]), ()),
            2: (seq_player([("bump", ())]), ()),
        }

    def test_round_robin_game(self):
        iface = counter_interface()
        result = run_game(iface, self.players(), RoundRobinScheduler([1, 2]))
        assert result.ok
        assert result.log.without_sched().count("bump") == 3

    def test_script_scheduler_follows_script(self):
        iface = counter_interface()
        result = run_game(
            iface, self.players(), ScriptScheduler([1, 1, 1, 2, 2])
        )
        assert result.ok
        assert result.rets[1] == [1, 2]
        assert result.rets[2] == [3]

    def test_sched_events_recorded(self):
        iface = counter_interface()
        result = run_game(iface, self.players(), RoundRobinScheduler([1, 2]))
        assert any(e.is_sched() for e in result.log)

    def test_enumeration_covers_all_interleavings(self):
        iface = counter_interface()
        results = enumerate_game_logs(iface, self.players(), max_rounds=12)
        logs = behavior_logs(results)
        # 3 bumps interleaved: C(3,1) = 3 distinct orders of (1,1) vs (2).
        assert len(logs) == 3
        assert all(r.ok for r in results)

    def test_enumeration_run_cap(self):
        iface = counter_interface()
        with pytest.raises(OutOfFuel):
            enumerate_game_logs(
                iface, self.players(), max_rounds=12, max_runs=1
            )

    def test_sample_game_logs(self):
        iface = counter_interface()
        results = sample_game_logs(
            iface,
            self.players(),
            [RoundRobinScheduler([1, 2]), RoundRobinScheduler([2, 1])],
        )
        assert len(results) == 2
        assert all(r.ok for r in results)

    def test_fine_grained_mode_runs(self):
        iface = counter_interface()
        result = run_game(
            iface, self.players(), RoundRobinScheduler([1, 2]),
            fine_grained=True,
        )
        assert result.ok


class TestCriticalState:
    def test_critical_suppresses_queries(self):
        events = []

        def enter_spec(ctx):
            yield from ctx.query()
            ctx.emit("enter")
            return None

        def mid_spec(ctx):
            yield from ctx.query()  # suppressed inside critical
            ctx.emit("mid")
            return None

        def leave_spec(ctx):
            ctx.emit("leave")
            return None
            yield

        iface = LayerInterface(
            "Crit",
            [1, 2],
            {
                "enter": shared_prim("enter", enter_spec, enters_critical=True),
                "mid": shared_prim("mid", mid_spec),
                "leave": shared_prim("leave", leave_spec, exits_critical=True),
            },
        )
        env = ScriptedEnv([(Event(2, "noise"),), (Event(2, "noise"),)])
        run = run_local(
            iface, 1,
            seq_player([("enter", ()), ("mid", ()), ("leave", ()), ("mid", ())]),
            env=env,
        )
        assert run.ok
        names = [e.name for e in run.log]
        # First env batch lands before `enter`; the second only at the
        # post-critical `mid` query.
        assert names == ["noise", "enter", "mid", "leave", "noise", "mid"]

    def test_unbalanced_exit_sticks(self):
        def bad_spec(ctx):
            ctx.exit_critical()
            return None
            yield

        iface = LayerInterface("Bad", [1], {"bad": shared_prim("bad", bad_spec)})
        run = run_local(iface, 1, call_player("bad"))
        assert not run.ok
