"""Span collection: nesting, ordering, export, thread safety, overhead."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro import obs
from repro.obs.trace import NOOP_SPAN


class TestDisabledPath:
    def test_disabled_by_default(self):
        assert not obs.obs_enabled()

    def test_span_is_shared_noop_when_disabled(self):
        s1 = obs.span("anything", layer="L1")
        s2 = obs.span("other")
        assert s1 is NOOP_SPAN and s2 is NOOP_SPAN

    def test_noop_span_collects_nothing(self):
        with obs.span("a"):
            with obs.span("b"):
                pass
        assert len(obs.collector()) == 0

    def test_guarded_metrics_collect_nothing(self):
        obs.inc("x")
        obs.observe("h", 1.5)
        snap = obs.snapshot()
        assert snap["counters"] == {}
        assert snap["histograms"] == {}

    def test_overhead_guard(self):
        # The disabled fast path is a flag test returning a shared
        # singleton: generous absolute bound so CI noise cannot trip it,
        # but a pathological slow path (allocating spans, touching
        # locks) would.
        start = time.perf_counter()
        for _ in range(100_000):
            with obs.span("hot", key="value"):
                pass
            obs.inc("hot.counter")
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0
        assert len(obs.collector()) == 0


class TestSpanNesting:
    def test_parent_child_links(self):
        obs.enable()
        with obs.span("outer", layer="L2"):
            with obs.span("inner"):
                pass
            with obs.span("inner2"):
                pass
        spans = {s.name: s for s in obs.collector().spans}
        assert spans["outer"].parent is None
        assert spans["outer"].depth == 0
        assert spans["inner"].parent == spans["outer"].sid
        assert spans["inner2"].parent == spans["outer"].sid
        assert spans["inner"].depth == spans["inner2"].depth == 1

    def test_completion_ordering(self):
        obs.enable()
        with obs.span("a"):
            with obs.span("b"):
                with obs.span("c"):
                    pass
        names = [s.name for s in obs.collector().spans]
        # Spans are recorded at exit: innermost first.
        assert names == ["c", "b", "a"]

    def test_sids_follow_entry_order(self):
        obs.enable()
        with obs.span("first"):
            with obs.span("second"):
                pass
        spans = {s.name: s for s in obs.collector().spans}
        assert spans["first"].sid < spans["second"].sid

    def test_durations_nest(self):
        obs.enable()
        with obs.span("outer"):
            with obs.span("inner"):
                time.sleep(0.002)
        spans = {s.name: s for s in obs.collector().spans}
        assert spans["inner"].dur_us > 0
        assert spans["outer"].dur_us >= spans["inner"].dur_us

    def test_exception_recorded_and_propagated(self):
        obs.enable()
        with pytest.raises(ValueError):
            with obs.span("failing"):
                raise ValueError("boom")
        (record,) = obs.collector().spans
        assert record.error == "ValueError"

    def test_args_captured(self):
        obs.enable()
        with obs.span("tagged", judgment="L1 ⊢ M : L2", n=3):
            pass
        (record,) = obs.collector().spans
        assert record.args == {"judgment": "L1 ⊢ M : L2", "n": 3}


class TestEnableDisable:
    def test_enable_resets_by_default(self):
        obs.enable()
        with obs.span("stale"):
            pass
        obs.enable()
        assert len(obs.collector()) == 0

    def test_observing_restores_prior_state(self):
        assert not obs.obs_enabled()
        with obs.observing():
            assert obs.obs_enabled()
            with obs.span("inside"):
                pass
        assert not obs.obs_enabled()
        assert len(obs.collector()) == 1

    def test_observing_nested_inside_enabled(self):
        obs.enable()
        with obs.observing(reset=False):
            pass
        assert obs.obs_enabled()


class TestChromeTrace:
    def test_schema_roundtrip(self, tmp_path):
        obs.enable()
        with obs.span("pipeline", category="calculus", layer="L_lock"):
            with obs.span("rule.Fun"):
                pass
        path = obs.write_chrome_trace(tmp_path / "trace.json")
        data = json.loads(path.read_text())
        assert set(data) == {"traceEvents", "displayTimeUnit"}
        assert data["displayTimeUnit"] == "ms"

        events = data["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(meta) == 1 and meta[0]["name"] == "thread_name"
        assert {e["name"] for e in complete} == {"pipeline", "rule.Fun"}
        for event in complete:
            assert {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"} <= set(event)
            assert event["ts"] >= 0 and event["dur"] >= 0
        # Parent linkage survives the export.
        by_name = {e["name"]: e for e in complete}
        assert by_name["rule.Fun"]["args"]["parent"] == by_name["pipeline"]["args"]["sid"]

    def test_non_primitive_args_serialised(self):
        obs.enable()
        with obs.span("odd", payload=object()):
            pass
        json.dumps(obs.chrome_trace())  # must not raise

    def test_trace_survives_json_roundtrip(self):
        obs.enable()
        with obs.span("a", n=1):
            pass
        trace = obs.chrome_trace()
        assert json.loads(json.dumps(trace)) == trace


class TestThreadSafety:
    def test_concurrent_spans_keep_per_thread_nesting(self):
        obs.enable()
        workers, repeats = 8, 25
        barrier = threading.Barrier(workers)

        def work(k):
            barrier.wait()
            for i in range(repeats):
                with obs.span("outer", worker=k, i=i):
                    with obs.span("inner", worker=k, i=i):
                        pass

        threads = [
            threading.Thread(target=work, args=(k,)) for k in range(workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        spans = obs.collector().spans
        assert len(spans) == workers * repeats * 2
        by_sid = {s.sid: s for s in spans}
        inners = [s for s in spans if s.name == "inner"]
        assert len(inners) == workers * repeats
        for inner in inners:
            parent = by_sid[inner.parent]
            # Each inner's parent is the outer of the SAME worker and
            # iteration — cross-thread interleaving never corrupts the
            # per-thread stacks.
            assert parent.name == "outer"
            assert parent.args["worker"] == inner.args["worker"]
            assert parent.args["i"] == inner.args["i"]
            assert parent.thread_index == inner.thread_index
        assert len({s.thread_index for s in spans}) == workers

    def test_thread_names_exported(self):
        obs.enable()

        def work():
            with obs.span("threaded"):
                pass

        t = threading.Thread(target=work, name="worker-thread")
        t.start()
        t.join()
        trace = obs.chrome_trace()
        names = [
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert "worker-thread" in names
