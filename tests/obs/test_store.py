"""The run ledger: storage, capture, statistics, diffing, ingestion."""

from __future__ import annotations

import errno
import json
import os
import subprocess
import sys

import pytest

from repro import obs
from repro.cas import ContentStore, StoreWarning
from repro.core.certificate import (
    Certificate,
    Obligation,
    stamp_cache_status,
    stamp_provenance,
)
from repro.obs import store
from repro.obs.blocks import SINKS, tally


def _cert(judgment="A ⊢ x", rule="Fun", ok=True, children=()):
    return Certificate(
        judgment=judgment,
        rule=rule,
        obligations=[Obligation("holds", ok)],
        children=list(children),
    )


def _bench_payload(duration, nodeid="bench_demo.py::test_x", outcome="passed"):
    return {
        "schema": "repro.bench/v1",
        "module": "bench_demo.py",
        "tests": [
            {"nodeid": nodeid, "outcome": outcome, "duration_s": duration}
        ],
    }


def _bench_records(durations, metric="bench_demo.py::test_x"):
    """Synthetic run records (one per duration) without touching disk."""
    return [
        {
            "schema": store.RUN_SCHEMA,
            "kind": "bench",
            "ts": 1000.0 + i,
            "object": "demo",
            "ok": True,
            "wall_s": duration,
            "bench": {
                "module": "bench_demo.py",
                "tests": {metric: {"outcome": "passed",
                                   "duration_s": duration}},
            },
        }
        for i, duration in enumerate(durations)
    ]


class TestLedgerStorage:
    def test_append_read_roundtrip(self, tmp_path):
        ledger = store.RunLedger(str(tmp_path / "ledger"))
        digest = ledger.append({"ts": 1.0, "object": "a", "ok": True})
        runs = ledger.runs()
        assert len(runs) == 1
        assert runs[0]["digest"] == digest
        assert runs[0]["schema"] == store.RUN_SCHEMA

    def test_append_is_content_addressed_and_idempotent(self, tmp_path):
        ledger = store.RunLedger(str(tmp_path / "ledger"))
        record = {"ts": 1.0, "object": "a", "ok": True}
        first = ledger.append(dict(record))
        second = ledger.append(dict(record))
        assert first == second
        assert len(ledger.runs()) == 1

    def test_runs_sorted_and_filtered(self, tmp_path):
        ledger = store.RunLedger(str(tmp_path / "ledger"))
        ledger.append({"ts": 3.0, "object": "b", "ok": True,
                       "rules": {"Fun": {"count": 1}}})
        ledger.append({"ts": 1.0, "object": "a", "ok": True})
        ledger.append({"ts": 2.0, "object": "a", "ok": False})
        assert [r["ts"] for r in ledger.runs()] == [1.0, 2.0, 3.0]
        assert len(ledger.runs(object="a")) == 2
        assert len(ledger.runs(rule="Fun")) == 1
        assert len(ledger.runs(last=1)) == 1
        assert ledger.runs(last=1)[0]["ts"] == 3.0
        assert len(ledger.runs(since=2.0)) == 2
        assert ledger.objects() == ["a", "b"]

    def test_fingerprint_filter_matches_prefix(self, tmp_path):
        ledger = store.RunLedger(str(tmp_path / "ledger"))
        ledger.append({
            "ts": 1.0, "object": "a", "ok": True,
            "certificates": [{"fingerprint": "abcdef12", "digest": "f00"}],
        })
        ledger.append({"ts": 2.0, "object": "b", "ok": True})
        assert len(ledger.runs(fingerprint="abcd")) == 1
        assert ledger.runs(fingerprint="abcd")[0]["object"] == "a"

    def test_torn_and_foreign_lines_are_skipped(self, tmp_path):
        ledger = store.RunLedger(str(tmp_path / "ledger"))
        ledger.append({"ts": 1.0, "object": "a", "ok": True})
        torn = ledger.append({"ts": 2.0, "object": "b", "ok": True})
        flipped = ledger.append({"ts": 3.0, "object": "c", "ok": True})
        records = ContentStore(ledger.root, ".json")
        with open(records.path(torn), "r+b") as handle:
            handle.truncate(os.path.getsize(records.path(torn)) - 5)
        with open(records.path(flipped), "r+b") as handle:
            handle.seek(-3, os.SEEK_END)
            handle.write(b"X")
        records.put("f" * 64, b'{"schema": "someone/else", "ts": 9}')
        records.put("e" * 64, b"not json at all")
        with pytest.warns(StoreWarning) as caught:
            runs = ledger.runs()
        # The intact run survives; each damaged record is one warning
        # naming its file, and a foreign record is skipped silently.
        assert [r["ts"] for r in runs] == [1.0]
        assert sorted(str(w.message).split(":")[0] for w in caught) == sorted(
            records.path(key) for key in (torn, flipped, "e" * 64)
        )

    def test_failed_append_is_reported(self, tmp_path, monkeypatch):
        ledger = store.RunLedger(str(tmp_path / "ledger"))

        def full_disk(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "replace", full_disk)
        with pytest.warns(StoreWarning, match="No space left"):
            assert ledger.append({"ts": 1.0, "object": "a", "ok": True}) is None
        monkeypatch.undo()
        assert ledger.runs() == []

    def test_old_segment_layout_is_refused(self, tmp_path):
        (tmp_path / "ledger" / "segments").mkdir(parents=True)
        with pytest.raises(ValueError, match="segments"):
            store.RunLedger(str(tmp_path / "ledger"))

    def test_compact_retention(self, tmp_path):
        ledger = store.RunLedger(str(tmp_path / "ledger"))
        for i in range(6):
            ledger.append({"ts": float(i), "object": "a" if i % 2 else "b",
                           "ok": True})
        kept = ledger.compact(keep_last=2)
        assert kept == 4
        assert len(ledger.runs(object="a")) == 2
        kept = ledger.compact(max_age_s=2.5, now=6.0)
        assert all(6.0 - r["ts"] <= 2.5 for r in ledger.runs())
        assert kept == len(ledger.runs())
        # compaction deletes exactly the dropped records' files
        assert len(ContentStore(ledger.root, ".json").entries()) == kept


class TestCertificateIdentity:
    def test_digest_ignores_provenance(self):
        plain = _cert()
        stamped = _cert()
        stamped.provenance = {"wall_time_s": 1.23, "cache": "hit"}
        assert store.certificate_digest(plain) == store.certificate_digest(
            stamped
        )

    def test_digest_ignores_nested_provenance(self):
        child_a, child_b = _cert("B ⊢ y", "Wk"), _cert("B ⊢ y", "Wk")
        child_b.provenance = {"wall_time_s": 9.0}
        a = _cert(children=[child_a])
        b = _cert(children=[child_b])
        assert store.certificate_digest(a) == store.certificate_digest(b)

    def test_digest_distinguishes_judgments(self):
        assert store.certificate_digest(_cert()) != store.certificate_digest(
            _cert(judgment="A ⊢ other")
        )

    def test_fingerprint_is_stable_and_provenance_free(self):
        plain = _cert()
        stamped = _cert()
        stamped.provenance = {"wall_time_s": 1.23}
        assert store.certificate_fingerprint(
            plain
        ) == store.certificate_fingerprint(stamped)

    def test_accepts_exported_dicts(self):
        cert = _cert()
        assert store.certificate_digest(cert) == store.certificate_digest(
            cert.to_json()
        )


class TestRunCapture:
    def test_ledger_contextmanager_records_roots_only(self, tmp_path):
        path = str(tmp_path / "ledger")
        with obs.ledger(path, object="unit"):
            child = _cert("B ⊢ y", "Wk")
            stamp_provenance(child, 0.1)
            parent = _cert(children=[child])
            stamp_provenance(parent, 0.5)
        runs = store.RunLedger(path).runs()
        assert len(runs) == 1
        record = runs[0]
        assert record["object"] == "unit"
        assert record["kind"] == "engine"
        assert [c["rule"] for c in record["certificates"]] == ["Fun"]
        assert record["obligations"] == {"total": 2, "failed": 0}
        # both tree nodes appear in the per-rule rollup
        assert set(record["rules"]) == {"Fun", "Wk"}
        assert record["ok"] is True

    def test_capture_never_mutates_certificates_obs_off(self, tmp_path):
        reference = json.dumps(_cert().to_json(), sort_keys=True)
        with obs.ledger(str(tmp_path / "ledger"), object="unit"):
            cert = _cert()
            stamp_provenance(cert, 0.5)
            captured = json.dumps(cert.to_json(), sort_keys=True)
        assert captured == reference
        assert cert.provenance is None

    def test_restamping_updates_wall_not_duplicates(self, tmp_path):
        path = str(tmp_path / "ledger")
        with obs.ledger(path, object="unit"):
            cert = _cert()
            stamp_provenance(cert, 0.1)
            stamp_provenance(cert, 0.9)
        record = store.RunLedger(path).runs()[0]
        assert len(record["certificates"]) == 1
        assert record["certificates"][0]["wall_s"] == pytest.approx(0.9)

    def test_cache_hits_reach_record_via_stamp_hook(self, tmp_path):
        path = str(tmp_path / "ledger")
        with obs.ledger(path, object="unit"):
            cert = _cert()
            stamp_cache_status(cert, "hit")
            tally("hits")
            tally("hit_latency_s", 0.002)
            tally("misses")
            tally("miss_latency_s", 0.004)
        record = store.RunLedger(path).runs()[0]
        # the hit-stamped cert still counts as a root certificate
        assert len(record["certificates"]) == 1
        assert record["cache"]["hits"] == 1
        assert record["cache"]["misses"] == 1
        assert record["cache"]["hit_latency_s"] == pytest.approx(0.002)

    def test_failed_certificates_mark_run_not_ok(self, tmp_path):
        path = str(tmp_path / "ledger")
        with obs.ledger(path, object="unit"):
            stamp_provenance(_cert(ok=False), 0.1)
        record = store.RunLedger(path).runs()[0]
        assert record["ok"] is False
        assert record["obligations"]["failed"] == 1

    def test_record_states_the_configuration_that_ran(
        self, tmp_path, monkeypatch
    ):
        # The resolved engine configuration, not the raw strings: a
        # request for 64 workers is clamped to the CPUs, and an unset
        # lint mode is the default it resolves to.
        from repro.parallel import cpu_budget

        monkeypatch.setenv("REPRO_JOBS", "64")
        monkeypatch.delenv("REPRO_LINT", raising=False)
        monkeypatch.delenv("REPRO_REDUCE", raising=False)
        path = str(tmp_path / "ledger")
        with obs.ledger(path, object="unit"):
            stamp_provenance(_cert(), 0.1)
        env = store.RunLedger(path).runs()[0]["env"]
        assert env["jobs"] == cpu_budget()
        assert env["lint"] == "record"
        assert env["reduce"] is True

        monkeypatch.setenv("REPRO_REDUCE", "off")
        path = str(tmp_path / "ledger-off")
        with obs.ledger(path, object="unit"):
            stamp_provenance(_cert(), 0.1)
        assert store.RunLedger(path).runs()[0]["env"]["reduce"] is False

    def test_disable_without_flush_writes_nothing(self, tmp_path):
        path = str(tmp_path / "ledger")
        store.enable_ledger(path, object="unit")
        stamp_provenance(_cert(), 0.1)
        store.disable_ledger(flush=False)
        assert store.RunLedger(path).runs() == []

    def test_env_var_arms_and_flushes_at_exit(self, tmp_path):
        path = str(tmp_path / "ledger")
        script = (
            "from repro.core.certificate import Certificate, Obligation, "
            "stamp_provenance\n"
            "cert = Certificate(judgment='A', rule='Fun', "
            "obligations=[Obligation('holds', True)])\n"
            "stamp_provenance(cert, 0.25)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_LEDGER"] = path
        env["REPRO_LEDGER_OBJECT"] = "env-armed"
        subprocess.run(
            [sys.executable, "-c", script],
            check=True, cwd=os.path.dirname(os.path.dirname(
                os.path.dirname(os.path.abspath(__file__)))),
            env=env,
        )
        runs = store.RunLedger(path).runs()
        assert len(runs) == 1
        assert runs[0]["object"] == "env-armed"
        assert runs[0]["certificates"][0]["rule"] == "Fun"

    def test_worker_note_shipping_merges_deltas(self, tmp_path):
        sink = SINKS["tallies"]
        with obs.ledger(str(tmp_path / "ledger"), object="unit") as run:
            mark = sink.mark()
            for _ in range(2):
                tally("hits")
                tally("hit_latency_s", 0.001)
            delta = sink.since(mark)
            assert delta == {"hits": 2, "hit_latency_s": pytest.approx(0.002)}
            # the parent absorbing the shipped delta doubles the counts
            sink.absorb(delta)
            assert run.counts["hits"] == 4


class TestStatistics:
    def test_median_and_mad(self):
        assert store.median([3.0, 1.0, 2.0]) == 2.0
        assert store.median([1.0, 2.0, 3.0, 4.0]) == 2.5
        assert store.median([]) == 0.0
        assert store.mad([1.0, 1.0, 1.0]) == 0.0
        assert store.mad([1.0, 2.0, 3.0]) == 1.0

    def test_series_stats(self):
        stats = store.series_stats([1.0, 2.0, 3.0])
        assert stats == {
            "n": 3, "median": 2.0, "mad": 1.0, "min": 1.0, "max": 3.0,
            "latest": 3.0,
        }

    def test_detects_injected_2x_slowdown(self):
        durations = [1.0 + 0.01 * ((-1) ** i) for i in range(9)] + [2.0]
        result = store.detect_regressions(_bench_records(durations))
        assert result["status"] == "fail"
        failing = {f["metric"] for f in result["findings"]
                   if f["verdict"] == "fail"}
        assert "bench_demo.py::test_x" in failing
        assert "wall_s" in failing

    def test_quiet_on_mad_level_noise(self):
        durations = [1.0 + 0.01 * ((-1) ** i) for i in range(10)]
        result = store.detect_regressions(_bench_records(durations))
        assert result["status"] == "ok"
        assert all(f["verdict"] == "ok" for f in result["findings"])

    def test_insufficient_history(self):
        result = store.detect_regressions(_bench_records([1.0, 1.0]))
        assert result["status"] == "insufficient-history"
        assert result["findings"] == []

    def test_min_seconds_floor_never_gates(self):
        durations = [0.001] * 9 + [0.01]  # 10x, but microbench noise
        result = store.detect_regressions(_bench_records(durations))
        assert result["status"] == "ok"
        assert all(
            f["verdict"] == "below min-seconds" for f in result["findings"]
        )

    def test_zero_mad_uses_noise_floor_not_infinity(self):
        durations = [1.0] * 9 + [1.04]  # 4% above an exactly-flat baseline
        result = store.detect_regressions(_bench_records(durations))
        assert result["status"] == "ok"

    def test_run_metrics_extraction(self):
        record = {
            "wall_s": 2.0,
            "obligations": {"total": 10, "failed": 1},
            "profile": {"redundancy": {"ratio": 0.84}},
            "cache": {"hits": 3, "misses": 1},
            "bench": {"tests": {"b.py::t": {"duration_s": 0.5}}},
        }
        metrics = store.run_metrics(record)
        assert metrics["wall_s"] == 2.0
        assert metrics["obligations"] == 10.0
        assert metrics["redundancy_ratio"] == 0.84
        assert metrics["cache_hit_rate"] == 0.75
        assert metrics["b.py::t"] == 0.5


class TestIngestBench:
    def test_ingest_creates_bench_run(self, tmp_path):
        path = str(tmp_path / "ledger")
        digest = store.ingest_bench(path, _bench_payload(1.5), ts=100.0)
        runs = store.RunLedger(path).runs()
        assert runs[0]["digest"] == digest
        assert runs[0]["kind"] == "bench"
        assert runs[0]["object"] == "demo"
        assert runs[0]["wall_s"] == 1.5
        assert store.run_metrics(runs[0])["bench_demo.py::test_x"] == 1.5

    def test_ingest_from_file(self, tmp_path):
        bench = tmp_path / "BENCH_demo.json"
        bench.write_text(json.dumps(_bench_payload(0.5)))
        store.ingest_bench(str(tmp_path / "ledger"), str(bench))
        assert len(store.RunLedger(str(tmp_path / "ledger")).runs()) == 1

    def test_ingest_rejects_wrong_schema(self, tmp_path):
        with pytest.raises(ValueError, match="repro.bench/v1"):
            store.ingest_bench(str(tmp_path / "ledger"), {"schema": "nope"})

    def test_failed_test_marks_run_not_ok(self, tmp_path):
        path = str(tmp_path / "ledger")
        store.ingest_bench(path, _bench_payload(1.0, outcome="failed"))
        assert store.RunLedger(path).runs()[0]["ok"] is False


class TestDiffCertificates:
    def test_identical(self):
        diff = store.diff_certificates(_cert().to_json(), _cert().to_json())
        assert diff["identical"] is True
        assert diff["obligations"] == {
            "added": [], "removed": [], "flipped": [],
        }

    def test_added_removed_flipped(self):
        a = Certificate(
            judgment="A ⊢ x", rule="Fun",
            obligations=[Obligation("kept", True), Obligation("gone", True),
                         Obligation("flip", True)],
        )
        b = Certificate(
            judgment="A ⊢ x", rule="Fun",
            obligations=[Obligation("kept", True), Obligation("new", True),
                         Obligation("flip", False)],
        )
        diff = store.diff_certificates(a.to_json(), b.to_json())
        assert diff["identical"] is False
        assert diff["obligations"]["added"] == ["A ⊢ x|Fun|new"]
        assert diff["obligations"]["removed"] == ["A ⊢ x|Fun|gone"]
        assert diff["obligations"]["flipped"] == ["A ⊢ x|Fun|flip"]

    def test_coverage_and_wall_deltas(self):
        a, b = _cert().to_json(), _cert().to_json()
        a["provenance"] = {
            "wall_time_s": 1.0,
            "coverage": {"env_contexts": {"explored": 10}},
        }
        b["provenance"] = {
            "wall_time_s": 2.0,
            "coverage": {"env_contexts": {"explored": 20}},
            "profile": {"redundancy": {"ratio": 0.5}},
        }
        diff = store.diff_certificates(a, b)
        assert diff["blocks"]["coverage"] == {
            "a": {"env_contexts": {"explored": 10}},
            "b": {"env_contexts": {"explored": 20}},
        }
        assert diff["wall_s"] == {"a": 1.0, "b": 2.0}
        assert diff["blocks"]["profile"] == {
            "a": None, "b": {"redundancy": {"ratio": 0.5}},
        }
