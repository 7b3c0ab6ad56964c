"""The Def. 2.1 strategy-simulation checker."""

import hashlib

import pytest

from repro.core import (
    Event,
    EventMapRel,
    ID_REL,
    LayerInterface,
    LogInvariant,
    Rely,
    ReplayFn,
    Scenario,
    SimConfig,
    VerificationError,
    check_scenarios,
    check_sim,
    enumerate_local_runs,
    env_events_valid,
    prim_player,
    scenario_impl_player,
    scenario_spec_player,
    shared_prim,
    simple_event_prim,
)
from repro.core.errors import Stuck
from repro.core.log import Log
from repro.core.module import FuncImpl, Module
from repro.envflags import pinned

from count_invariants import count_inv


def counter_iface(name="Cnt", domain=(1, 2)):
    def bump_spec(ctx):
        yield from ctx.query()
        count = ctx.log.count("bump") + 1
        ctx.emit("bump", ret=count)
        return count

    return LayerInterface(name, domain, {"bump": shared_prim("bump", bump_spec)})


ENV_BUMP = (Event(2, "bump"),)

#: The name of the log's last event (None on the empty log).
last_name = ReplayFn("last_name", lambda: None, lambda state, event: event.name)


class TestEnumerateLocalRuns:
    def test_idle_env_single_run(self):
        iface = counter_iface()
        config = SimConfig(env_alphabet=[()], env_depth=2)
        records = enumerate_local_runs(
            iface, 1, prim_player("bump"), (), config
        )
        assert len(records) == 1
        assert records[0].run.ret == 1

    def test_branches_over_alphabet(self):
        iface = counter_iface()
        config = SimConfig(env_alphabet=[(), ENV_BUMP], env_depth=1)
        records = enumerate_local_runs(
            iface, 1, prim_player("bump"), (), config
        )
        rets = sorted(r.run.ret for r in records)
        assert rets == [1, 2]  # env idle vs env bumped first

    def test_depth_bounds_branching(self):
        iface = counter_iface()
        two_calls = scenario_spec_player(
            Scenario("two", [("bump", ()), ("bump", ())], None)
        )
        config = SimConfig(env_alphabet=[(), ENV_BUMP], env_depth=2)
        records = enumerate_local_runs(iface, 1, two_calls, (), config)
        # 2 query points × binary alphabet → 4 behaviours.
        assert len(records) == 4

    def test_rely_prunes_invalid_envs(self):
        iface = counter_iface().with_rely(
            Rely({2: count_inv(
                "no_bumps", "bump", lambda count: count == 0, tid=2
            )})
        )
        config = SimConfig(env_alphabet=[(), ENV_BUMP], env_depth=1)
        records = enumerate_local_runs(
            iface, 1, prim_player("bump"), (), config
        )
        assert len(records) == 1  # only the idle env survives
        assert records[0].run.ret == 1

    def test_env_events_valid_helper(self):
        rely = Rely({2: count_inv("none", "x", lambda count: count == 0, tid=2)})
        assert env_events_valid(Log([Event(1, "x")]), rely, {2})
        assert not env_events_valid(Log([Event(2, "x")]), rely, {2})

    def test_env_events_valid_judges_each_prefix(self):
        """A non-monotone rely: a log whose last event is ``bad`` fails,
        but extending it succeeds again.  Each environment event is
        judged on the prefix ending at it, so a ``bad`` one fails the
        log even when a later event follows it."""
        flaky = LogInvariant(
            "no-trailing-bad", last_name, verdict=lambda name: name != "bad"
        )
        assert flaky.holds(Log([Event(2, "bad"), Event(2, "x")]))
        rely = Rely({2: flaky})
        assert not env_events_valid(Log([Event(2, "bad"), Event(2, "x")]), rely, {2})
        assert env_events_valid(Log([Event(1, "bad"), Event(2, "x")]), rely, {2})
        assert env_events_valid(Log([Event(2, "x")]), rely, {2})


class TestCheckSim:
    def test_identical_players_related(self):
        iface = counter_iface()
        cert = check_sim(
            iface, prim_player("bump"), iface, prim_player("bump"),
            ID_REL, 1, SimConfig(env_alphabet=[(), ENV_BUMP], env_depth=1),
            judgment="bump ≤ bump",
        )
        assert cert.ok
        assert cert.obligation_count() > 2

    def test_wrong_impl_detected(self):
        iface = counter_iface()

        def double_bump(ctx):
            yield from ctx.call("bump")
            ret = yield from ctx.call("bump")
            return ret

        cert = check_sim(
            iface, double_bump, iface, prim_player("bump"),
            ID_REL, 1, SimConfig(env_alphabet=[()], env_depth=1),
            judgment="2bump ≤ bump",
        )
        assert not cert.ok

    def test_wrong_ret_detected(self):
        iface = counter_iface()

        def lying_bump(ctx):
            yield from ctx.call("bump")
            return 999

        cert = check_sim(
            iface, lying_bump, iface, prim_player("bump"),
            ID_REL, 1, SimConfig(env_alphabet=[()], env_depth=1),
            judgment="lie ≤ bump",
        )
        assert not cert.ok
        assert any("rets" in o.description for o in cert.failures)

    def test_ret_comparison_disabled(self):
        iface = counter_iface()

        def lying_bump(ctx):
            yield from ctx.call("bump")
            return 999

        cert = check_sim(
            iface, lying_bump, iface, prim_player("bump"),
            ID_REL, 1,
            SimConfig(env_alphabet=[()], env_depth=1, compare_rets=False),
            judgment="lie ≤ bump (rets ignored)",
        )
        assert cert.ok

    def test_erasure_relation(self):
        """A low machine with extra noise events refines the clean one."""
        low = counter_iface("Low")

        def noisy_bump(ctx):
            ret = yield from ctx.call("bump")
            ctx.emit("noise")
            return ret

        rel = EventMapRel("strip", erase={"noise"})
        cert = check_sim(
            low, noisy_bump, counter_iface("High"), prim_player("bump"),
            rel, 1, SimConfig(env_alphabet=[(), ENV_BUMP], env_depth=1),
            judgment="noisy ≤ clean",
        )
        assert cert.ok

    def test_log_universe_collected(self):
        iface = counter_iface()
        cert = check_sim(
            iface, prim_player("bump"), iface, prim_player("bump"),
            ID_REL, 1, SimConfig(env_alphabet=[()], env_depth=1),
            judgment="j",
        )
        assert cert.log_universe


class TestScenarios:
    def test_scenario_players_agree(self):
        iface = counter_iface()
        module = Module(
            {"bump": FuncImpl("bump", prim_player("bump"))}, name="M"
        )
        scenario = Scenario(
            "twice", [("bump", ()), ("bump", ())],
            SimConfig(env_alphabet=[(), ENV_BUMP], env_depth=2),
        )
        cert = check_scenarios(
            iface,
            lambda s: scenario_impl_player(module, s),
            iface,
            ID_REL,
            1,
            [scenario],
            judgment="module ≤ iface",
        )
        assert cert.ok

    def test_per_query_delivery_mode(self):
        iface = counter_iface()
        module = Module(
            {"bump": FuncImpl("bump", prim_player("bump"))}, name="M"
        )
        scenario = Scenario(
            "twice", [("bump", ()), ("bump", ())],
            SimConfig(env_alphabet=[(), ENV_BUMP], env_depth=2,
                      delivery="per_query"),
        )
        cert = check_scenarios(
            iface,
            lambda s: scenario_impl_player(module, s),
            iface,
            ID_REL,
            1,
            [scenario],
            judgment="module ≤ iface (per query)",
        )
        assert cert.ok


def bump_twice(ctx):
    first = yield from ctx.call("bump")
    second = yield from ctx.call("bump")
    return [first, second]


def bump_n_times(ctx, n):
    rets = []
    for _ in range(n):
        rets.append((yield from ctx.call("bump")))
    return rets


def noise_intolerant_bump(ctx):
    ret = yield from ctx.call("bump")
    if ctx.log.count("noise"):
        raise Stuck("witness noise observed")
    return ret


#: Lowers every environment ``bump`` to ``bump • noise``; ``noise`` is
#: implementation detail and erased before logs are related.
NOISY_REL = EventMapRel(
    "noisy",
    erase={"noise"},
    concretize={"bump": lambda e: (e, Event(e.tid, "noise"))},
)


class TestRetsCounterexamples:
    def test_rets_counterexample_shrinks_under_the_checked_relation(self):
        """The shrinker re-checks ``rets related`` with the very relation
        the obligation used, so a whole-value failure shrinks."""
        iface = counter_iface()
        ints_only = EventMapRel(
            "ints",
            ret_rel=lambda low, high: isinstance(low, int) and low == high,
        )
        cert = check_sim(
            iface, bump_twice, iface, bump_twice, ints_only, 1,
            SimConfig(env_alphabet=[(), ENV_BUMP], env_depth=2),
            judgment="twice ≤_ints twice",
        )
        failures = cert.failures
        assert len(failures) == 4
        assert all(o.description.startswith("rets related") for o in failures)
        assert [o.counterexample.schedule for o in failures] == [()] * 4


#: SHA-256 of ``canonical_bytes()`` for the two checks below, recorded
#: when ``check_sim`` lowered witness batches up front through
#: ``concretize_events``.  Lowering them at delivery time through
#: ``concretize_batch`` must not move a byte.
NOISY_DIGESTS = {
    "noisy_args_vectors":
        "f4cd5bb81a189901712f7e1e3f33aa2b0d832d9c2f055e61699133c7784d4aeb",
    "noisy_impl_stuck":
        "7f3951a745c89eabba40704159869813f9539cb876d48eaa6a9562a074135998",
}


@pytest.mark.usefixtures("obs_off")
class TestNonIdentityConcretizationBytes:
    """``check_sim`` certificate bytes under a relation whose
    concretization is not its event map: serial and 2-worker runs agree,
    and both match the pinned digests."""

    @pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "jobs2"])
    def test_certificates_match_pinned_digests(self, jobs):
        with pinned(jobs=jobs):
            certificates = {
                "noisy_args_vectors": check_sim(
                    counter_iface("Low"), bump_n_times,
                    counter_iface("High"), bump_n_times,
                    NOISY_REL, 1,
                    SimConfig(
                        env_alphabet=[(), ENV_BUMP], env_depth=2,
                        args_list=[(1,), (2,)],
                    ),
                    judgment="bump^n ≤_noisy bump^n",
                ),
                "noisy_impl_stuck": check_sim(
                    counter_iface("Low"), noise_intolerant_bump,
                    counter_iface("High"), prim_player("bump"),
                    NOISY_REL, 1,
                    SimConfig(env_alphabet=[(), ENV_BUMP], env_depth=2),
                    judgment="intolerant ≤_noisy bump",
                ),
            }
        assert certificates["noisy_args_vectors"].ok
        assert not certificates["noisy_impl_stuck"].ok
        digests = {
            name: hashlib.sha256(cert.canonical_bytes()).hexdigest()
            for name, cert in certificates.items()
        }
        assert digests == NOISY_DIGESTS
