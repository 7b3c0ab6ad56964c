"""Profile/span merging across fork-pool workers.

Extends the determinism contract to the profiling tier: with profiling
on, an N-worker run must produce the same *profile provenance* as the
serial run (modulo wall-clock fields), worker span frames must adopt
into the parent trace in serial plan order under the span that was open
at the fan-out point, and shipped redundancy/metric records must merge
to serial totals.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.core import (
    Event,
    FuncImpl,
    ID_REL,
    LayerInterface,
    Module,
    Scenario,
    SimConfig,
    check_scenarios,
    check_sim,
    prim_player,
    scenario_impl_player,
    shared_prim,
)
from repro.envflags import pinned


@pytest.fixture(autouse=True)
def profile_isolation():
    obs.disable()
    obs.disable_profiling()
    obs.collector().reset()
    obs.REGISTRY.reset()
    obs.COVERAGE.reset()
    obs.profiler().reset()
    yield
    obs.disable()
    obs.disable_profiling()
    obs.collector().reset()
    obs.REGISTRY.reset()
    obs.COVERAGE.reset()
    obs.profiler().reset()


def counter_iface(name="Cnt", domain=(1, 2)):
    def bump_spec(ctx):
        yield from ctx.query()
        count = ctx.log.count("bump") + 1
        ctx.emit("bump", ret=count)
        return count

    return LayerInterface(name, domain, {"bump": shared_prim("bump", bump_spec)})


ENV_BUMP = (Event(2, "bump"),)


def run_scenarios(jobs):
    iface = counter_iface()
    module = Module({"bump": FuncImpl("bump", prim_player("bump"))}, name="M")
    scenarios = [
        Scenario("once", [("bump", ())],
                 SimConfig(env_alphabet=[(), ENV_BUMP], env_depth=1)),
        Scenario("twice", [("bump", ()), ("bump", ())],
                 SimConfig(env_alphabet=[(), ENV_BUMP], env_depth=2)),
    ]
    with pinned(jobs=jobs):
        return check_scenarios(
            iface, lambda s: scenario_impl_player(module, s), iface,
            ID_REL, 1, scenarios, judgment="module ≤ iface",
        )


def run_check_sim(jobs):
    iface = counter_iface()
    with pinned(jobs=jobs):
        return check_sim(
            iface, prim_player("bump"), iface, prim_player("bump"),
            ID_REL, 1,
            SimConfig(env_alphabet=[(), ENV_BUMP], env_depth=2),
            judgment="bump ≤ bump",
        )


def strip_wall(profile):
    """Profile provenance with the wall-clock attribution removed."""
    out = dict(profile)
    out["obligations"] = [
        {k: v for k, v in entry.items() if k != "wall_us"}
        for entry in profile.get("obligations", [])
    ]
    return out


def scenario_profiles(cert):
    return [
        child.provenance["profile"] for child in cert.children
    ]


class TestProfileProvenanceMerge:
    def test_scenario_fanout_matches_serial_modulo_wall(self):
        with obs.profiling():
            serial = run_scenarios(jobs=1)
        obs.profiler().reset()
        obs.collector().reset()
        obs.REGISTRY.reset()
        obs.COVERAGE.reset()
        with obs.profiling():
            parallel = run_scenarios(jobs=2)
        serial_profiles = [strip_wall(p) for p in scenario_profiles(serial)]
        parallel_profiles = [strip_wall(p) for p in scenario_profiles(parallel)]
        assert serial_profiles == parallel_profiles
        # Obligation attribution keeps serial plan order.
        assert [
            p["obligations"][0]["obligation"] for p in parallel_profiles
        ] == ["once", "twice"]

    def test_chunked_discharge_matches_serial_modulo_wall(self):
        with obs.profiling():
            serial = run_check_sim(jobs=1)
        obs.profiler().reset()
        obs.collector().reset()
        obs.REGISTRY.reset()
        obs.COVERAGE.reset()
        with obs.profiling():
            parallel = run_check_sim(jobs=2)
        assert strip_wall(parallel.provenance["profile"]) == strip_wall(
            serial.provenance["profile"]
        )


class TestSpanAdoption:
    def _span_names(self):
        return [record.name for record in obs.collector().spans]

    def test_worker_frames_adopt_in_serial_plan_order(self):
        with obs.profiling():
            run_scenarios(jobs=1)
        serial_obligations = [
            name for name in self._span_names()
            if name.startswith("obligation[")
        ]
        assert serial_obligations == ["obligation[once]", "obligation[twice]"]
        obs.collector().reset()
        obs.profiler().reset()
        obs.REGISTRY.reset()
        obs.COVERAGE.reset()
        with obs.profiling():
            run_scenarios(jobs=2)
        parallel_obligations = [
            name for name in self._span_names()
            if name.startswith("obligation[")
        ]
        assert parallel_obligations == serial_obligations

    def test_adopted_frames_have_no_dangling_parents(self):
        with obs.profiling():
            run_scenarios(jobs=2)
        spans = obs.collector().spans
        by_sid = {record.sid: record for record in spans}
        dangling = [
            record.name for record in spans
            if record.parent is not None and record.parent not in by_sid
        ]
        assert dangling == []

    def test_worker_obligations_nest_under_fanout_rule_span(self):
        with obs.profiling():
            run_scenarios(jobs=2)
        spans = obs.collector().spans
        by_sid = {record.sid: record for record in spans}
        obligations = [
            record for record in spans
            if record.name.startswith("obligation[")
        ]
        assert obligations
        for record in obligations:
            ancestors = set()
            node = record
            while node.parent is not None and node.parent in by_sid:
                node = by_sid[node.parent]
                assert node.sid not in ancestors  # cycle guard
                ancestors.add(node.sid)
            # Walked to a root that is a parent-side span, not a
            # floating worker fragment.
            assert node.depth == 0

    def test_flamegraph_stacks_keep_nesting_in_parallel(self):
        with obs.profiling():
            run_scenarios(jobs=2)
        stacks = obs.collapsed_stacks()
        obligation_stacks = [
            stack for stack in stacks
            if any(frame.startswith("obligation[") for frame in stack)
        ]
        assert obligation_stacks
        for stack in obligation_stacks:
            # The obligation frame never appears as a detached root.
            assert not stack[0].startswith("obligation[")


class TestMetricAndRedundancyMerge:
    def test_counters_merge_to_serial_totals(self):
        with obs.profiling():
            run_scenarios(jobs=1)
        serial_counters = {
            name: value
            for name, value in obs.REGISTRY.counter_values().items()
            if name.startswith(("sim.", "machine."))
        }
        obs.collector().reset()
        obs.profiler().reset()
        obs.REGISTRY.reset()
        obs.COVERAGE.reset()
        with obs.profiling():
            run_scenarios(jobs=2)
        parallel_counters = {
            name: value
            for name, value in obs.REGISTRY.counter_values().items()
            if name.startswith(("sim.", "machine."))
        }
        assert parallel_counters == serial_counters

    def test_shipped_redundancy_merges_to_serial_totals(self):
        with obs.profiling():
            run_scenarios(jobs=1)
        serial = obs.profiler().redundancy_map()
        obs.collector().reset()
        obs.profiler().reset()
        obs.REGISTRY.reset()
        obs.COVERAGE.reset()
        with obs.profiling():
            run_scenarios(jobs=2)
        parallel = obs.profiler().redundancy_map()
        assert parallel == serial
        assert "env_contexts" in parallel
