"""Run reports and certificate provenance."""

from __future__ import annotations

import json
import time

import pytest

from repro import obs
from repro.core import (
    ID_REL,
    SimConfig,
    check_sim,
    prim_player,
    shared_prim,
)
from repro.core.interface import LayerInterface
from repro.core.events import Event


def counter_iface():
    def bump_spec(ctx):
        yield from ctx.query()
        count = ctx.log.count("bump") + 1
        ctx.emit("bump", ret=count)
        return count

    return LayerInterface(
        "Cnt", (1, 2), {"bump": shared_prim("bump", bump_spec)}
    )


ENV_BUMP = (Event(2, "bump"),)


def tiny_check_sim():
    iface = counter_iface()
    return check_sim(
        iface, prim_player("bump"), iface, prim_player("bump"),
        ID_REL, 1, SimConfig(env_alphabet=[(), ENV_BUMP], env_depth=1),
        judgment="bump ≤ bump",
    )


class TestSpanRollup:
    def test_self_time_excludes_children(self):
        obs.enable()
        with obs.span("outer"):
            with obs.span("inner"):
                time.sleep(0.005)
        rollup = obs.span_rollup()
        assert rollup["inner"]["total_ms"] >= 4.0
        # The outer span only wraps the inner one: nearly all its time
        # is attributed to the child.
        assert rollup["outer"]["self_ms"] < rollup["outer"]["total_ms"]
        assert rollup["outer"]["self_ms"] < rollup["inner"]["total_ms"]

    def test_counts_and_mean(self):
        obs.enable()
        for _ in range(4):
            with obs.span("repeated"):
                pass
        entry = obs.span_rollup()["repeated"]
        assert entry["count"] == 4
        assert entry["mean_ms"] == pytest.approx(entry["total_ms"] / 4)


class TestReport:
    def test_report_json_schema(self):
        obs.enable()
        with obs.span("unit"):
            obs.inc("runs")
        data = obs.report_json()
        assert data["schema"] == "repro.obs/report/v1"
        assert data["span_count"] == 1
        assert "unit" in data["spans"]
        assert data["metrics"]["counters"]["runs"] == 1
        json.dumps(data)  # must be serializable as-is

    def test_render_report_mentions_spans_and_counters(self):
        obs.enable()
        with obs.span("rule.Fun"):
            obs.inc("sim.runs_enumerated", 7)
        text = obs.render_report()
        assert "rule.Fun" in text
        assert "sim.runs_enumerated" in text

    def test_render_report_empty(self):
        assert "spans: none recorded" in obs.render_report()


class TestProvenance:
    def test_disabled_run_stamps_nothing(self):
        cert = tiny_check_sim()
        assert cert.ok
        assert cert.provenance is None

    def test_enabled_run_stamps_certificate(self):
        with obs.observing():
            cert = tiny_check_sim()
        assert cert.ok
        provenance = cert.provenance
        assert provenance is not None
        assert provenance["wall_time_s"] >= 0
        assert provenance["env_contexts"] == 2
        assert provenance["obligations"]["failed"] == 0
        assert provenance["obligations"]["total"] == cert.obligation_count()
        # The metric slice attributes the exploration to this check.
        assert provenance["metrics"]["sim.env_contexts"] == 2
        assert provenance["metrics"]["sim.runs_enumerated"] > 0

    def test_rule_spans_and_provenance_from_calculus(self):
        from repro.core.calculus import empty_rule

        with obs.observing():
            layer = empty_rule(counter_iface(), [1])
        cert = layer.certificate
        assert cert.provenance is not None
        assert cert.provenance["rule"] == "Empty"
        names = [s.name for s in obs.collector().spans]
        assert "rule.Empty" in names
        assert obs.snapshot()["counters"]["calculus.rule.Empty"] == 1

    def test_render_provenance_tree(self):
        with obs.observing():
            cert = tiny_check_sim()
        text = obs.render_provenance(cert)
        assert "bump ≤ bump" in text
        assert "wall time:" in text

    def test_render_provenance_without_annotations(self):
        cert = tiny_check_sim()
        text = obs.render_provenance(cert)
        assert "bump ≤ bump" in text
        assert "wall time:" not in text
