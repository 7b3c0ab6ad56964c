"""The deep state-space profiler: gating, redundancy accounting,
provenance stamping, flamegraph export, heartbeat streaming.

The load-bearing contract is the first class: profiling is strictly
additive, and with it off the checker produces certificates
byte-identical to a build without the profiler — serial, parallel and
cache-warm alike.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro
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
from repro.obs.profile import NOOP_SPAN


def counter_iface(name="Cnt", domain=(1, 2)):
    def bump_spec(ctx):
        yield from ctx.query()
        count = ctx.log.count("bump") + 1
        ctx.emit("bump", ret=count)
        return count

    return LayerInterface(name, domain, {"bump": shared_prim("bump", bump_spec)})


ENV_BUMP = (Event(2, "bump"),)


def run_check_sim(jobs=1):
    iface = counter_iface()
    with pinned(jobs=jobs):
        return check_sim(
            iface, prim_player("bump"), iface, prim_player("bump"),
            ID_REL, 1,
            SimConfig(env_alphabet=[(), ENV_BUMP], env_depth=2),
            judgment="bump ≤ bump",
        )


def cert_bytes(cert) -> bytes:
    return json.dumps(cert.to_json(), sort_keys=True, ensure_ascii=False).encode()


class TestGating:
    def test_off_by_default(self):
        assert not obs.profile_enabled()

    @pytest.mark.parametrize("value, outcome", [
        ("Yes", "True"), ("off", "False"), ("ture", "ValueError"),
    ])
    def test_env_switch_is_a_strict_boolean(self, value, outcome):
        # Read once, when repro.obs is first imported: a fresh process.
        probe = (
            "from repro import obs\n"
            "print(obs.profile_enabled())\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src, REPRO_PROFILE=value)
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True
        )
        if outcome == "ValueError":
            assert done.returncode != 0
            assert "ValueError: REPRO_PROFILE='ture'" in done.stderr
        else:
            assert done.returncode == 0, done.stderr
            assert done.stdout.strip() == outcome

    def test_enable_implies_obs(self):
        obs.enable_profiling()
        assert obs.profile_enabled()
        assert obs.obs_enabled()

    def test_disable_profiling_leaves_obs_on(self):
        obs.enable_profiling()
        obs.disable_profiling()
        assert not obs.profile_enabled()
        assert obs.obs_enabled()

    def test_context_manager_restores(self):
        with obs.profiling():
            assert obs.profile_enabled()
        assert not obs.profile_enabled()

    def test_profile_span_is_noop_while_off(self):
        obs.enable()  # obs on, profiling off
        assert obs.profile_span("x") is NOOP_SPAN
        assert not obs.collector().spans

    def test_profile_span_records_while_on(self):
        with obs.profiling():
            with obs.profile_span("obligation[demo]"):
                pass
        (record,) = obs.collector().spans
        assert record.name == "obligation[demo]"
        assert record.category == "profile"

    def test_record_publishes_only_while_profiling(self):
        builder = obs.RedundancyBuilder("demo")
        builder.visit(obs.state_fingerprint("a"))
        builder.record()
        assert obs.profiler().redundancy == []
        with obs.profiling():
            builder.record()
        assert len(obs.profiler().redundancy) == 1


class TestRedundancyBuilder:
    def test_duplicate_and_replay_accounting(self):
        builder = obs.RedundancyBuilder("env_contexts")
        builder.visit(obs.state_fingerprint("s1"))
        builder.visit(obs.state_fingerprint("s1"))  # replay-equivalent
        builder.visit(obs.state_fingerprint("s2"))
        builder.visit(replay=True)  # DFS prefix re-execution
        builder.branch(2)
        builder.branch(2)
        builder.branch(3)
        assert builder.explored == 4
        assert builder.distinct == 2
        assert builder.duplicates == 1
        assert builder.replayed == 1
        assert builder.ratio == pytest.approx(0.5)
        record = builder.as_dict()
        assert record["axis"] == "env_contexts"
        assert record["branching"] == {"2": 2, "3": 1}

    def test_empty_ratio_is_zero(self):
        assert obs.RedundancyBuilder("x").ratio == 0.0

    def test_absorb_ships_replay_and_branching_only(self):
        builder = obs.RedundancyBuilder("machine.schedules")
        builder.visit(obs.state_fingerprint("s"))
        builder.absorb({"replayed": 3, "branching": {"2": 5}})
        assert builder.replayed == 3
        assert builder.explored == 4
        assert builder.branching == {2: 5}

    def test_merge_redundancy_sums_parts(self):
        a = {"axis": "env_contexts", "explored": 10, "distinct": 4,
             "duplicates": 6, "replayed": 0, "branching": {"2": 3}}
        b = {"axis": "env_contexts", "explored": 6, "distinct": 4,
             "duplicates": 0, "replayed": 2, "branching": {"2": 1, "3": 2}}
        merged = obs.merge_redundancy([a, b, None])
        assert merged["axis"] == "env_contexts"
        assert merged["explored"] == 16
        assert merged["distinct"] == 8
        assert merged["ratio"] == pytest.approx((16 - 8) / 16)
        assert merged["branching"] == {"2": 4, "3": 2}

    def test_merge_mixed_axes(self):
        merged = obs.merge_redundancy([
            {"axis": "a", "explored": 1, "distinct": 1},
            {"axis": "b", "explored": 1, "distinct": 1},
        ])
        assert merged["axis"] == "mixed"

    def test_merge_nothing_is_empty(self):
        assert obs.merge_redundancy([None, {}]) == {}


class TestProfileProvenance:
    def test_check_sim_stamps_redundancy_and_obligations(self):
        with obs.profiling():
            cert = run_check_sim()
        profile = cert.provenance["profile"]
        assert profile["redundancy"]["axis"] == "env_contexts"
        assert profile["redundancy"]["explored"] > 0
        assert 0.0 <= profile["redundancy"]["ratio"] <= 1.0
        entries = profile["obligations"]
        assert entries, "per-obligation attribution missing"
        for entry in entries:
            assert entry["obligation"].startswith("args=")
            assert entry["wall_us"] >= 0
            assert entry["states"] > 0
            assert "ratio" in entry
            assert "redundancy" not in entry  # rolled up, not per-entry

    def test_scenario_check_stamps_profile(self):
        iface = counter_iface()
        module = Module(
            {"bump": FuncImpl("bump", prim_player("bump"))}, name="M"
        )
        scenarios = [
            Scenario("once", [("bump", ())],
                     SimConfig(env_alphabet=[(), ENV_BUMP], env_depth=1)),
        ]
        with obs.profiling():
            cert = check_scenarios(
                iface, lambda s: scenario_impl_player(module, s), iface,
                ID_REL, 1, scenarios, judgment="module ≤ iface",
            )
        (child,) = cert.children
        profile = child.provenance["profile"]
        assert profile["obligations"][0]["obligation"] == "once"

    def test_obs_only_run_has_no_profile_key(self):
        with obs.observing():
            cert = run_check_sim()
        assert cert.provenance is not None
        assert "profile" not in cert.provenance

    def test_profiler_collects_redundancy_records(self):
        with obs.profiling():
            run_check_sim()
        rollup = obs.profiler().redundancy_map()
        assert "env_contexts" in rollup
        assert rollup["env_contexts"]["explored"] > 0

    def test_obligation_entry_strips_record_keeps_ratio(self):
        entry = obs.obligation_entry({
            "obligation": "P0", "wall_us": 12, "states": 3,
            "redundancy": {"ratio": 0.25, "explored": 3},
        })
        assert entry == {
            "obligation": "P0", "wall_us": 12, "states": 3, "ratio": 0.25
        }

    def test_merge_profile_maps_rolls_up_redundancy_only(self):
        # A composition rule inherits the profile block's merge through
        # its projection: the rollup propagates, attribution lines stay.
        block = obs.blocks.BLOCKS["profile"]
        maps = [
            {"redundancy": {"axis": "a", "explored": 2, "distinct": 1},
             "obligations": [{"obligation": "x"}]},
            {"redundancy": {"axis": "a", "explored": 2, "distinct": 2}},
            None,
        ]
        assert block.merge(maps)["obligations"] == [{"obligation": "x"}]
        merged = block.inherit(block.merge(maps))
        assert merged["redundancy"]["explored"] == 4
        assert "obligations" not in merged


class TestProfilingOffByteIdentity:
    """The acceptance contract: with profiling off, certificates stay
    byte-identical to the pre-profiler determinism baseline — obs-off
    runs carry no provenance at all, and serial / parallel / cache-warm
    runs agree byte-for-byte."""

    def test_obs_off_run_has_no_provenance(self):
        cert = run_check_sim()
        assert cert.provenance is None

    def test_serial_parallel_cached_bytes_identical(self, monkeypatch, tmp_path):
        assert not obs.obs_enabled() and not obs.profile_enabled()
        serial = cert_bytes(run_check_sim(jobs=1))
        parallel = cert_bytes(run_check_sim(jobs=2))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cold = cert_bytes(run_check_sim(jobs=1))
        warm = cert_bytes(run_check_sim(jobs=1))
        assert parallel == serial
        assert cold == serial
        assert warm == serial

    def test_profiled_run_then_off_leaves_bytes_unchanged(self):
        baseline = cert_bytes(run_check_sim())
        with obs.profiling():
            run_check_sim()
        obs.disable()
        assert cert_bytes(run_check_sim()) == baseline

    def test_off_run_leaves_profiler_empty(self):
        run_check_sim(jobs=2)
        assert obs.profiler().redundancy == []
        assert obs.profiler().pool_tasks == []
        assert obs.profiler().pool_batches == []


class TestPoolObservability:
    def test_parallel_run_records_pool_timeline(self):
        with obs.profiling():
            run_check_sim(jobs=2)
        profiler = obs.profiler()
        assert profiler.pool_batches, "no pool batch recorded"
        batch = profiler.pool_batches[0]
        assert batch["jobs"] == 2
        assert batch["items"] >= 1
        assert batch["setup_s"] >= 0
        assert profiler.pool_tasks, "no pool task timeline recorded"
        for task in profiler.pool_tasks:
            assert task["queue_s"] >= 0
            assert task["exec_s"] >= 0
            assert task["ship_s"] >= 0
            assert task["pid"] > 0
        rollup = profiler.pool_utilization()
        assert rollup["tasks"] == len(profiler.pool_tasks)
        assert rollup["workers"] >= 1
        assert 0 <= rollup.get("utilization", 0) <= len(
            rollup["busy_s_by_worker"]
        )

    def test_cache_latency_histograms(self, monkeypatch, tmp_path):
        from repro.core import fun_rule

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))

        def bump_wrap(ctx):
            ret = yield from ctx.call("bump")
            return ret

        def build():  # the cache wraps rule applications
            return fun_rule(
                counter_iface(), FuncImpl("bump", bump_wrap),
                counter_iface(), ID_REL, 1,
                SimConfig(env_alphabet=[()], env_depth=1),
            )

        with obs.profiling():
            build()  # cold: miss
            build()  # warm: hit
        histograms = obs.snapshot()["histograms"]
        assert histograms["cache.miss_latency_s"]["count"] >= 1
        assert histograms["cache.hit_latency_s"]["count"] >= 1

    def test_pool_utilization_empty_without_data(self):
        assert obs.ProfileCollector().pool_utilization() == {}


class TestFlamegraph:
    def _profiled_spans(self):
        def work():  # enough to register non-zero integer microseconds
            return sum(range(50_000))

        with obs.profiling():
            with obs.span("rule.Fun", layer="L1"):
                with obs.profile_span("obligation[args=(1,)]"):
                    with obs.profile_span("enumerate_local_runs"):
                        work()
                with obs.profile_span("obligation[args=(2,)]"):
                    work()

    def test_collapsed_stacks_attribute_self_time(self):
        self._profiled_spans()
        stacks = obs.collapsed_stacks()
        names = set(stacks)
        assert ("rule.Fun", "obligation[args=(1,)]",
                "enumerate_local_runs") in names
        assert ("rule.Fun", "obligation[args=(2,)]") in names
        assert all(weight >= 0 for weight in stacks.values())

    def test_write_collapsed_format(self, tmp_path):
        self._profiled_spans()
        path = tmp_path / "profile.collapsed"
        obs.write_collapsed(str(path))
        lines = path.read_text().strip().splitlines()
        assert lines
        for line in lines:
            stack, _, weight = line.rpartition(" ")
            assert stack
            assert weight.isdigit()
        assert any(
            "rule.Fun;obligation[args=(1,)];enumerate_local_runs" in line
            for line in lines
        )

    def test_speedscope_export_is_loadable(self, tmp_path):
        self._profiled_spans()
        path = tmp_path / "profile.speedscope.json"
        obs.write_speedscope(str(path), "demo", obs.collector())
        payload = json.loads(path.read_text())
        assert payload["$schema"] == (
            "https://www.speedscope.app/file-format-schema.json"
        )
        (profile,) = payload["profiles"]
        assert profile["type"] == "sampled"
        assert profile["unit"] == "microseconds"
        assert len(profile["samples"]) == len(profile["weights"])
        frames = payload["shared"]["frames"]
        for sample in profile["samples"]:
            for index in sample:
                assert 0 <= index < len(frames)

    def test_real_check_produces_obligation_frames(self):
        with obs.profiling():
            run_check_sim()
        assert any(
            any(frame.startswith("obligation[") for frame in stack)
            for stack in obs.collapsed_stacks()
        )


class TestHeartbeat:
    def test_stream_lifecycle(self, tmp_path):
        path = tmp_path / "heartbeat.jsonl"
        obs.start_heartbeat(str(path), interval_s=0.0)
        obs.heartbeat("sim.discharge", explored=5, budget=20, force=True)
        obs.stop_heartbeat()
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert [r["type"] for r in records] == ["start", "heartbeat", "end"]
        start, beat, end = records
        assert start["schema"] == "repro.obs/heartbeat/v1"
        assert beat["phase"] == "sim.discharge"
        assert beat["explored"] == 5
        assert beat["budget"] == 20
        assert "rate_per_s" in beat and "eta_s" in beat
        assert end["status"] == "done"

    def test_rate_limiting(self, tmp_path):
        path = tmp_path / "heartbeat.jsonl"
        obs.start_heartbeat(str(path), interval_s=60.0)
        assert obs.heartbeat("phase", explored=1)  # first always passes
        assert not obs.heartbeat("phase", explored=2)  # limited
        assert obs.heartbeat("phase", explored=3, force=True)
        obs.stop_heartbeat()

    def test_noop_without_writer(self):
        assert not obs.heartbeat("phase", explored=1)

    def test_checker_emits_heartbeats(self, tmp_path):
        path = tmp_path / "heartbeat.jsonl"
        obs.start_heartbeat(str(path), interval_s=0.0)
        run_check_sim()
        obs.stop_heartbeat()
        phases = {
            json.loads(line).get("phase")
            for line in path.read_text().splitlines()
        }
        assert "sim.env_contexts" in phases

    def test_start_truncates_previous_stream(self, tmp_path):
        path = tmp_path / "heartbeat.jsonl"
        obs.start_heartbeat(str(path))
        obs.stop_heartbeat()
        obs.start_heartbeat(str(path))
        obs.stop_heartbeat()
        types = [
            json.loads(line)["type"]
            for line in path.read_text().splitlines()
        ]
        assert types == ["start", "end"]
