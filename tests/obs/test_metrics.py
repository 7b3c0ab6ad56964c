"""Metric aggregation: counters, histograms, windows."""

from __future__ import annotations

import threading

import pytest

from repro import obs
from repro.obs.metrics import Counter, Histogram


class TestPrimitives:
    def test_counter_aggregates(self):
        c = Counter("c")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_histogram_summary(self):
        h = Histogram("h")
        for v in [1.0, 2.0, 3.0, 4.0]:
            h.observe(v)
        summary = h.summary()
        assert summary["count"] == 4
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert summary["mean"] == pytest.approx(2.5)
        assert 2.0 <= summary["p50"] <= 3.0
        assert summary["p95"] >= 3.0

    def test_histogram_caps_samples_but_not_stats(self):
        h = Histogram("h", max_samples=10)
        for v in range(100):
            h.observe(float(v))
        summary = h.summary()
        assert summary["count"] == 100
        assert summary["max"] == 99.0
        assert summary["samples_seen"] == 100
        assert summary["samples_kept"] == 10

    def test_histogram_reservoir_is_unbiased_over_whole_run(self):
        # Pre-reservoir, the sample buffer froze on the first
        # ``max_samples`` observations: a stream whose values grow over
        # time reported a p50 stuck near the start of the run.  The
        # reservoir keeps a uniform sample of *all* observations, so the
        # p50 of 0..9999 must land near 5000, not near 50.
        h = Histogram("h", max_samples=100)
        for v in range(10_000):
            h.observe(float(v))
        summary = h.summary()
        assert summary["samples_kept"] == 100
        assert 3_000 <= summary["p50"] <= 7_000
        assert summary["p95"] >= 8_000

    def test_histogram_reservoir_deterministic_by_name(self):
        def fill(name):
            h = Histogram(name, max_samples=25)
            for v in range(1_000):
                h.observe(float(v))
            return h.summary()

        assert fill("same") == fill("same")
        # Exact stats never depend on the reservoir.
        a, b = fill("same"), fill("other")
        for key in ("count", "total", "min", "max", "mean",
                    "samples_seen", "samples_kept"):
            assert a[key] == b[key]

    def test_histogram_below_cap_keeps_every_sample(self):
        h = Histogram("h", max_samples=100)
        for v in range(50):
            h.observe(float(v))
        summary = h.summary()
        assert summary["samples_kept"] == 50
        assert summary["p50"] == 25.0

    def test_percentile_is_the_summary_rank(self):
        h = Histogram("h")
        assert h.percentile(0.5) is None
        for v in [5.0, 1.0, 4.0, 2.0, 3.0, 100.0]:
            h.observe(v)
        summary = h.summary()
        # rank min(n - 1, int(q * n)) of the sorted samples
        assert h.percentile(0.50) == summary["p50"] == 4.0
        assert h.percentile(0.95) == summary["p95"] == 100.0
        assert h.percentile(0.0) == 1.0

    def test_counter_thread_safety(self):
        c = Counter("c")
        workers, per = 8, 10_000

        def work():
            for _ in range(per):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == workers * per


class TestGuardedHelpers:
    def test_enabled_helpers_record(self):
        obs.enable()
        obs.inc("runs", 3)
        obs.inc("runs")
        obs.observe("wall", 0.25)
        snap = obs.snapshot()
        assert snap["counters"]["runs"] == 4
        assert snap["histograms"]["wall"]["count"] == 1

    def test_disabled_helpers_are_silent(self):
        obs.inc("runs")
        obs.observe("wall", 0.25)
        assert obs.snapshot() == {"counters": {}, "histograms": {}}

    def test_registry_lazily_creates_one_instance(self):
        obs.enable()
        obs.inc("same")
        obs.inc("same")
        assert obs.REGISTRY.counter("same").value == 2

    def test_snapshot_is_sorted(self):
        obs.enable()
        obs.inc("zeta")
        obs.inc("alpha")
        assert list(obs.snapshot()["counters"]) == ["alpha", "zeta"]


class TestMetricsWindow:
    def test_delta_captures_only_window(self):
        obs.enable()
        obs.inc("before", 5)
        window = obs.MetricsWindow()
        obs.inc("during", 3)
        obs.inc("before", 2)
        delta = window.delta()
        assert delta == {"during": 3, "before": 2}

    def test_delta_drops_zero_movement(self):
        obs.enable()
        obs.inc("static", 5)
        window = obs.MetricsWindow()
        assert window.delta() == {}

    def test_disabled_window_is_empty(self):
        window = obs.MetricsWindow()
        obs.inc("anything")
        assert window.delta() == {}


class TestScheduleRounds:
    """Step-level redundancy: rounds that re-execute a recorded prefix."""

    #: ``(machine.schedule_rounds, machine.schedule_rounds_replayed)``.
    #: Resumed runs take their replayed rounds from a branch point
    #: without calling ``pick``; those rounds still count, so the values
    #: are the ones the script-following scheduler counted per pick.
    #: With reduction off the same enumerator runs with no axis active.
    ROUNDS = {"on": (6_373, 5_373), "off": (20_888, 17_552)}

    @pytest.mark.parametrize("reduce", ["on", "off"])
    def test_two_client_ticket_game(self, reduce, monkeypatch):
        from repro.core import check_soundness
        from repro.objects.ticket_lock import certify_ticket_lock

        layer = certify_ticket_lock([1, 2], lock="q0").composed
        client = {tid: [("acq", ("q0",)), ("rel", ("q0",))] for tid in (1, 2)}
        monkeypatch.setenv("REPRO_REDUCE", reduce)
        obs.enable()
        check_soundness(
            layer, clients=[client], max_rounds=14, require_progress=False,
        )
        counters = obs.snapshot()["counters"]
        rounds = counters["machine.schedule_rounds"]
        replayed = counters["machine.schedule_rounds_replayed"]
        assert (rounds, replayed) == self.ROUNDS[reduce]
        assert 0 < replayed < rounds
        # Counted per scheduling round: the rounds at which a run is cut
        # short by PruneRun or DeferRun, which machine.game_rounds skips,
        # count too.
        assert rounds > counters["machine.game_rounds"]

    @pytest.mark.parametrize("reduce", ["on", "off"])
    def test_python_spec_ticket_game_restores_nothing(self, reduce, monkeypatch):
        # Python-spec players are generators the engine cannot copy:
        # every resumed run re-executes its prefix, and counts as before.
        from repro.core import check_soundness
        from repro.objects.ticket_lock import certify_ticket_lock

        layer = certify_ticket_lock(
            [1, 2], lock="q0", use_c_source=False
        ).composed
        client = {tid: [("acq", ("q0",)), ("rel", ("q0",))] for tid in (1, 2)}
        monkeypatch.setenv("REPRO_REDUCE", reduce)
        obs.enable()
        check_soundness(
            layer, clients=[client], max_rounds=14, require_progress=False,
        )
        counters = obs.snapshot()["counters"]
        rounds = counters["machine.schedule_rounds"]
        replayed = counters["machine.schedule_rounds_replayed"]
        assert (rounds, replayed) == self.ROUNDS[reduce]
        assert counters.get("machine.schedule_rounds_restored", 0) == 0

    @staticmethod
    def c_ticket_game_counters(jobs=None):
        """Counters of the C-source ticket game alone (``[[P ⊕ M]]``)."""
        from repro.core import behaviors_of
        from repro.envflags import pinned
        from repro.objects.ticket_lock import certify_ticket_lock

        layer = certify_ticket_lock([1, 2], lock="q0").composed
        client = {tid: [("acq", ("q0",)), ("rel", ("q0",))] for tid in (1, 2)}
        obs.enable()
        with pinned(jobs=jobs):
            behaviors_of(layer.underlay, client, layer.module, max_rounds=14)
        return obs.snapshot()["counters"]

    @pytest.mark.parametrize("reduce", ["on", "off"])
    def test_c_ticket_game_restores_every_resumed_run(self, reduce, monkeypatch):
        monkeypatch.setenv("REPRO_REDUCE", reduce)
        counters = self.c_ticket_game_counters()
        replayed = counters["machine.schedule_rounds_replayed"]
        assert replayed > 0
        assert counters["machine.schedule_rounds_restored"] == replayed

    def test_restored_activations_reenter_a_wrapped_interpreter(
        self, monkeypatch
    ):
        # A send-loop wrapper on Interp.run_function, shaped like a
        # tracer that times each resumption, sees restored activations
        # too: restoration must not switch itself off around it.
        from repro.clight.semantics import Interp

        original = Interp.run_function
        entries = []

        def wrapped(*args, **kwargs):
            entries.append(args[3:])
            inner = original(*args, **kwargs)
            value, error = None, None
            while True:
                try:
                    item = inner.send(value) if error is None else inner.throw(error)
                except StopIteration as stop:
                    return stop.value
                value, error = None, None
                try:
                    value = yield item
                except GeneratorExit:
                    inner.close()
                    raise
                except BaseException as thrown:
                    error = thrown

        monkeypatch.setattr(Interp, "run_function", wrapped)
        # One process, so that ``entries`` sees every call.
        counters = self.c_ticket_game_counters(jobs=1)
        replayed = counters["machine.schedule_rounds_replayed"]
        assert replayed > 0
        assert counters["machine.schedule_rounds_restored"] == replayed
        # Restored activations re-entered through the wrapper.
        assert any(len(rest) == 2 and rest[1] is not None for rest in entries)
