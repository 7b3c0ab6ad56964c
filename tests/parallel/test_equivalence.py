"""Serial / parallel / cached equivalence of the verification engine.

The determinism contract (DESIGN.md): with observability off, a run
with N workers or against a warm certificate cache produces a
``Certificate`` whose ``to_json()`` is byte-identical to the serial
cold run — same obligations in the same order, same counterexamples
(captured across the process boundary), same log universes, same
failure messages.
"""

import errno
import json
import os
import warnings

import pytest

from repro.cas import ContentStore, StoreWarning
from repro.core import (
    Event,
    EventMapRel,
    FuncImpl,
    ID_REL,
    LayerInterface,
    Module,
    OutOfFuel,
    Scenario,
    SimConfig,
    check_scenarios,
    check_sim,
    check_soundness,
    enumerate_game_logs,
    fun_rule,
    pcomp,
    prim_player,
    scenario_impl_player,
    shared_prim,
)
from repro.envflags import pinned
from repro.obs.forensics import MAX_COUNTEREXAMPLES


def cert_bytes(cert) -> bytes:
    return json.dumps(cert.to_json(), sort_keys=True, ensure_ascii=False).encode()


def counter_iface(name="Cnt", domain=(1, 2)):
    def bump_spec(ctx):
        yield from ctx.query()
        count = ctx.log.count("bump") + 1
        ctx.emit("bump", ret=count)
        return count

    return LayerInterface(name, domain, {"bump": shared_prim("bump", bump_spec)})


ENV_BUMP = (Event(2, "bump"),)


def bump2_spec(ctx):
    yield from ctx.query()
    count = ctx.log.count("bump")
    ctx.emit("bump", ret=count + 1)
    ctx.emit("bump", ret=count + 2)
    return None


def bump2_impl(ctx):
    yield from ctx.call("bump")
    ctx.enter_critical()
    yield from ctx.call("bump")
    ctx.exit_critical()
    return None


def certified_stack():
    base = LayerInterface("L0", [1, 2], {"bump": shared_prim("bump", bump_spec_v2)})
    overlay = base.extend("L1", [shared_prim("bump2", bump2_spec)], hide=["bump"])
    rel = EventMapRel("Rb", ret_rel=lambda lo, hi: True)
    config1 = SimConfig(
        env_alphabet=[(), (Event(2, "bump"), Event(2, "bump"))],
        env_depth=1, compare_rets=False,
    )
    layer1 = fun_rule(base, FuncImpl("bump2", bump2_impl), overlay, rel, 1, config1)
    config2 = SimConfig(
        env_alphabet=[(), (Event(1, "bump"), Event(1, "bump"))],
        env_depth=1, compare_rets=False,
    )
    layer2 = fun_rule(base, FuncImpl("bump2", bump2_impl), overlay, rel, 2, config2)
    return pcomp(layer1, layer2)


def bump_spec_v2(ctx):
    yield from ctx.query()
    count = ctx.log.count("bump") + 1
    ctx.emit("bump", ret=count)
    return count


class TestCheckSimEquivalence:
    def _run(self, jobs):
        iface = counter_iface()
        with pinned(jobs=jobs):
            return check_sim(
                iface, prim_player("bump"), iface, prim_player("bump"),
                ID_REL, 1,
                SimConfig(env_alphabet=[(), ENV_BUMP], env_depth=2),
                judgment="bump ≤ bump",
            )

    @pytest.mark.usefixtures("obs_off")
    def test_parallel_matches_serial(self):
        assert cert_bytes(self._run(jobs=2)) == cert_bytes(self._run(jobs=1))

    def _run_failing(self, jobs):
        iface = counter_iface()

        def lying_bump(ctx):
            yield from ctx.call("bump")
            return 999

        with pinned(jobs=jobs):
            return check_sim(
                iface, lying_bump, iface, prim_player("bump"),
                ID_REL, 1,
                SimConfig(env_alphabet=[(), ENV_BUMP], env_depth=2),
                judgment="lie ≤ bump",
            )

    @pytest.mark.usefixtures("obs_off")
    def test_failing_obligations_cross_process(self):
        serial = self._run_failing(jobs=1)
        parallel = self._run_failing(jobs=2)
        assert not serial.ok and not parallel.ok
        assert cert_bytes(parallel) == cert_bytes(serial)
        # The counterexample budget is global, not per-worker: the
        # parallel run must carry evidence for exactly the same
        # obligations the serial run captured (and no more than the
        # per-judgment budget).
        with_evidence = [
            o.description for o in parallel.obligations if o.evidence
        ]
        assert with_evidence == [
            o.description for o in serial.obligations if o.evidence
        ]
        assert len(with_evidence) <= MAX_COUNTEREXAMPLES


class TestScenarioEquivalence:
    def _run(self, jobs):
        iface = counter_iface()
        module = Module(
            {"bump": FuncImpl("bump", prim_player("bump"))}, name="M"
        )
        scenarios = [
            Scenario("once", [("bump", ())],
                     SimConfig(env_alphabet=[(), ENV_BUMP], env_depth=1)),
            Scenario("twice", [("bump", ()), ("bump", ())],
                     SimConfig(env_alphabet=[(), ENV_BUMP], env_depth=2)),
        ]
        with pinned(jobs=jobs):
            return check_scenarios(
                iface,
                lambda s: scenario_impl_player(module, s),
                iface,
                ID_REL,
                1,
                scenarios,
                judgment="module ≤ iface",
            )

    @pytest.mark.usefixtures("obs_off")
    def test_per_scenario_fanout_matches_serial(self):
        assert cert_bytes(self._run(jobs=2)) == cert_bytes(self._run(jobs=1))


class TestSoundnessEquivalence:
    CLIENTS = [
        {1: [("bump2", ())], 2: [("bump2", ())]},
        {1: [("bump2", ()), ("bump2", ())], 2: [("bump2", ())]},
    ]

    def _run(self, jobs):
        layer = certified_stack()
        with pinned(jobs=jobs):
            return check_soundness(layer, clients=self.CLIENTS, max_rounds=24)

    @pytest.mark.usefixtures("obs_off")
    def test_per_client_fanout_matches_serial(self):
        serial = self._run(jobs=1)
        parallel = self._run(jobs=2)
        assert serial.ok and parallel.ok
        assert cert_bytes(parallel) == cert_bytes(serial)


class TestGameEnumerationEquivalence:
    def _enumerate(self, jobs, max_runs=100_000, max_rounds=12):
        stack = certified_stack()
        players = {
            1: (scenario_impl_player(
                stack.module, Scenario("c1", [("bump2", ())], None)
            ), ()),
            2: (scenario_impl_player(
                stack.module, Scenario("c2", [("bump2", ())], None)
            ), ()),
        }
        with pinned(jobs=jobs):
            return enumerate_game_logs(
                stack.underlay, players, max_rounds=max_rounds,
                max_runs=max_runs,
            )

    def test_results_match_serial(self):
        serial = self._enumerate(jobs=1)
        parallel = self._enumerate(jobs=2)
        assert len(parallel) == len(serial)
        assert [r.schedule for r in parallel] == [r.schedule for r in serial]
        assert [r.log for r in parallel] == [r.log for r in serial]
        assert [r.rets for r in parallel] == [r.rets for r in serial]

    def test_out_of_fuel_message_parity(self):
        # A budget of 1 is exceeded in every mode: the enumeration needs
        # one run per sibling branch it keeps, with or without reduction.
        with pytest.raises(OutOfFuel) as serial_err:
            self._enumerate(jobs=1, max_runs=1)
        with pytest.raises(OutOfFuel) as parallel_err:
            self._enumerate(jobs=2, max_runs=1)
        assert str(parallel_err.value) == str(serial_err.value)


class TestCachedRunEquivalence:
    @pytest.mark.usefixtures("obs_off")
    def test_rule_cache_cold_warm_byte_identical(self, monkeypatch, tmp_path):
        serial = check_soundness(
            certified_stack(),
            clients=[{1: [("bump2", ())], 2: [("bump2", ())]}],
            max_rounds=24,
        )
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cold = check_soundness(
            certified_stack(),
            clients=[{1: [("bump2", ())], 2: [("bump2", ())]}],
            max_rounds=24,
        )
        warm = check_soundness(
            certified_stack(),
            clients=[{1: [("bump2", ())], 2: [("bump2", ())]}],
            max_rounds=24,
        )
        assert cert_bytes(cold) == cert_bytes(serial)
        assert cert_bytes(warm) == cert_bytes(serial)

    @pytest.mark.usefixtures("obs_off")
    @pytest.mark.parametrize("damage", ["truncate", "flip"])
    def test_damaged_entries_are_reported_and_recomputed(
        self, monkeypatch, tmp_path, damage
    ):
        def run():
            return check_soundness(
                certified_stack(),
                clients=[{1: [("bump2", ())], 2: [("bump2", ())]}],
                max_rounds=24,
            )

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        # Serial, so every warning is raised in this process: a forked
        # worker reports the entries it reads on its own stderr.
        monkeypatch.setenv("REPRO_JOBS", "1")
        cold = run()
        store = ContentStore(str(tmp_path), ".pkl")
        paths = sorted(path for _mtime, _size, path in store.entries())
        assert paths, "cold run did not populate the cache"
        for path in paths:
            with open(path, "r+b") as handle:
                if damage == "truncate":
                    handle.truncate(os.path.getsize(path) - 7)
                else:
                    handle.seek(-7, os.SEEK_END)
                    byte = handle.read(1)
                    handle.seek(-7, os.SEEK_END)
                    handle.write(bytes([byte[0] ^ 0x01]))
        with pytest.warns(StoreWarning) as caught:
            warm = run()
        assert cert_bytes(warm) == cert_bytes(cold)
        # One warning per damaged entry, naming its file...
        assert sorted(str(w.message).split(":")[0] for w in caught) == paths
        # ...and every entry was rewritten: the next run reads clean.
        with warnings.catch_warnings():
            warnings.simplefilter("error", StoreWarning)
            assert cert_bytes(run()) == cert_bytes(cold)

    @pytest.mark.usefixtures("obs_off")
    def test_failed_puts_keep_the_computed_certificate(
        self, monkeypatch, tmp_path
    ):
        def full_disk(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        clients = [{1: [("bump2", ())], 2: [("bump2", ())]}]
        reference = check_soundness(certified_stack(), clients=clients,
                                    max_rounds=24)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(os, "replace", full_disk)
        with pytest.warns(StoreWarning, match="No space left"):
            cert = check_soundness(certified_stack(), clients=clients,
                                   max_rounds=24)
        assert cert_bytes(cert) == cert_bytes(reference)
        # Nothing was stored, and no temporary file was left behind.
        assert [name for _dir, _sub, names in os.walk(tmp_path)
                for name in names] == []

    @pytest.mark.usefixtures("obs_off")
    def test_warm_failing_rule_raises_identically(self, monkeypatch, tmp_path):
        from repro.core import VerificationError

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        base = counter_iface("L0")

        def lying_bump(ctx):
            yield from ctx.call("bump")
            return 999

        overlay = counter_iface("L0")  # same spec; impl lies about rets

        def build():
            return fun_rule(
                base, FuncImpl("bump", lying_bump), overlay, ID_REL, 1,
                SimConfig(env_alphabet=[()], env_depth=1),
            )

        with pytest.raises(VerificationError) as cold_err:
            build()
        with pytest.raises(VerificationError) as warm_err:
            build()
        assert str(warm_err.value) == str(cold_err.value)
        assert cert_bytes(warm_err.value.certificate) == cert_bytes(
            cold_err.value.certificate
        )

    def test_changed_impl_misses(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.parallel.cache import cache_key

        iface = counter_iface()

        def impl_a(ctx):
            ret = yield from ctx.call("bump")
            return ret

        def impl_b(ctx):
            ret = yield from ctx.call("bump")
            return ret if ret else None  # different bytecode

        config = SimConfig(env_alphabet=[()], env_depth=1)
        key_a = cache_key("Fun", (iface, FuncImpl("bump", impl_a), iface,
                                  ID_REL, 1, config))
        key_b = cache_key("Fun", (iface, FuncImpl("bump", impl_b), iface,
                                  ID_REL, 1, config))
        assert key_a != key_b
