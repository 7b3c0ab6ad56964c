"""Provenance blocks describe themselves to every reader.

A block's registration (:mod:`repro.obs.blocks`) is its only
description: ``explain``, ``diff``, the run record, ``run_metrics`` /
``trends`` and the dashboard all iterate the registry.  A block
registered here, by a test, reaches each of them with no edit to the
modules that render it; and ``diff`` reports a change in any block.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.core.certificate import Certificate, stamp_provenance
from repro.obs import cli, dashboard, store
from repro.obs.blocks import BLOCKS, register_block


def _merge_probe(values):
    hits = sum(value["hits"] for value in values if value)
    return {"hits": hits} if hits else None


def _render_probe(value):
    return [f"probe: {value['hits']} hit(s)"]


def _probe_metrics(value):
    return {"probe_hits": float(value["hits"])}


@pytest.fixture()
def probe_block():
    register_block("probe", _merge_probe, _render_probe, metrics=_probe_metrics)
    yield BLOCKS["probe"]
    del BLOCKS["probe"]


def _probed_certificate(hits):
    """A two-node derivation whose leaf checked ``hits`` probe hits;
    the root inherits the leaf's block."""
    leaf = Certificate(judgment="B ⊢ y", rule="Fun")
    leaf.add("leaf holds", True)
    stamp_provenance(leaf, 0.1, outputs=[{"probe": {"hits": hits}}])
    root = Certificate(judgment="A ⊢ x", rule="Wk", children=[leaf])
    root.add("root holds", True)
    stamp_provenance(root, 0.2)
    return root


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestRegisteredBlockReachesEveryReader:
    def test_explain_renders_the_block_at_every_node(
        self, probe_block, tmp_path, capsys
    ):
        obs.enable()
        path = _write(tmp_path, "c.json", _probed_certificate(3).to_json())
        assert cli.main(["explain", path]) == 0
        assert capsys.readouterr().out.count("probe: 3 hit(s)") == 2

    def test_diff_reports_the_block(self, probe_block, tmp_path, capsys):
        obs.enable()
        a = _probed_certificate(3).to_json()
        b = _probed_certificate(5).to_json()
        diff = store.diff_certificates(a, b)
        assert diff["identical"]
        assert diff["blocks"] == {"probe": {"a": {"hits": 3}, "b": {"hits": 5}}}
        assert cli.main(
            ["diff", _write(tmp_path, "a.json", a), _write(tmp_path, "b.json", b)]
        ) == 0
        out = capsys.readouterr().out
        assert "probe: 3 hit(s)" in out and "probe: 5 hit(s)" in out

    def test_run_record_metrics_trends_and_dashboard(
        self, probe_block, tmp_path, capsys
    ):
        obs.enable()
        path = str(tmp_path / "ledger")
        for hits in (3, 4):
            with obs.ledger(path, object="probed"):
                _probed_certificate(hits)
        runs = store.RunLedger(path).runs()
        # The record stores the block as a composition rule inherits it.
        hits = [run["probe"]["hits"] for run in runs]
        assert sorted(hits) == [3, 4]
        assert [store.run_metrics(run)["probe_hits"] for run in runs] == hits

        assert cli.main(["trends", "--ledger", path]) == 0
        assert "probe_hits" in capsys.readouterr().out

        html = dashboard.render_dashboard(runs)
        assert "<h2>probe</h2>" in html
        assert "probe_hits over 2 run(s)" in html
        assert f"probe: {hits[-1]} hit(s)" in html


def _exported(**blocks):
    """An exported one-obligation certificate whose root provenance
    holds ``blocks``."""
    cert = Certificate(judgment="A ⊢ x", rule="Fun")
    cert.add("spec total", True)
    data = cert.to_json()
    data["provenance"] = {"wall_time_s": 0.5, **blocks}
    return data


#: Pairs of root block values that differ in one respect only.
CHANGES = {
    "exhausted flip": (
        "coverage",
        {"machine.schedules": {"explored": 356, "exhausted": True}},
        {"machine.schedules": {"explored": 356, "exhausted": False}},
        ("yes", "no"),
    ),
    "reduction cuts": (
        "reduction",
        {"pruned": {"dpor": 4}},
        {"pruned": {"dpor": 9}},
        ("pruned=dpor:4", "pruned=dpor:9"),
    ),
    "obligation reuse": (
        "incremental",
        {"reused": 2, "rechecked": 0, "slice_misses": 0},
        {"reused": 0, "rechecked": 2, "slice_misses": 0},
        ("2 reused", "0 reused"),
    ),
}


class TestDiffSeesEveryBlock:
    @pytest.mark.parametrize("change", sorted(CHANGES))
    def test_block_change_between_otherwise_identical_certificates(
        self, change, tmp_path, capsys
    ):
        name, value_a, value_b, (text_a, text_b) = CHANGES[change]
        a, b = _exported(**{name: value_a}), _exported(**{name: value_b})
        diff = store.diff_certificates(a, b)
        assert diff["identical"]
        assert not any(diff["obligations"].values())
        assert diff["blocks"] == {name: {"a": value_a, "b": value_b}}

        assert cli.main(
            ["diff", _write(tmp_path, "a.json", a), _write(tmp_path, "b.json", b)]
        ) == 0
        out = capsys.readouterr().out
        section_a = out.index(f"  {name} (a):")
        section_b = out.index(f"  {name} (b):")
        assert text_a in out[section_a:section_b]
        assert text_b in out[section_b:]

    def test_equal_blocks_are_not_reported(self):
        block = {"pruned": {"dpor": 4}}
        diff = store.diff_certificates(
            _exported(reduction=block), _exported(reduction=dict(block))
        )
        assert diff["blocks"] == {}
