"""The ledger-backed ``python -m repro.obs`` subcommands.

``history`` / ``trends`` / ``regress`` / ``record`` / ``compact`` /
``diff`` / ``dashboard`` all operate on a ``RunLedger`` directory; the
``--json`` report/explain flags and the empty-heartbeat ``watch``
diagnostic ride along here because they landed in the same CLI pass.
"""

from __future__ import annotations

import json

from repro.core.certificate import Certificate
from repro.obs import cli, store


def _run_record(i, wall, object="ticket_lock", tests=None, ok=True):
    record = {
        "schema": store.RUN_SCHEMA,
        "kind": "engine",
        "ts": 1000.0 + i,
        "object": object,
        "ok": ok,
        "wall_s": wall,
        "certificates": [
            {"judgment": "A ⊢ x", "rule": "Fun", "ok": ok,
             "digest": f"{i:064x}", "fingerprint": f"{i:x}" * 16,
             "obligations": {"total": 75, "failed": 0 if ok else 1}}
        ],
        "rules": {"Fun": {"count": 1, "wall_s": wall}},
        "obligations": {"total": 75, "failed": 0 if ok else 1},
        "cache": {"hits": 3, "misses": 1},
        "env": {"jobs": "2"},
    }
    if tests:
        record["kind"] = "bench"
        record["bench"] = {
            "module": "bench_demo.py",
            "tests": {
                f"benchmarks/bench_demo.py::{name}":
                    {"outcome": "passed", "duration_s": duration}
                for name, duration in tests.items()
            },
        }
    return record


def seed_ledger(tmp_path, walls, name="ledger", **kwargs):
    path = tmp_path / name
    ledger = store.RunLedger(str(path))
    for i, wall in enumerate(walls):
        ledger.append(_run_record(i, wall, **kwargs))
    return str(path)


# Ten quiet runs around 1.0 s with MAD-scale noise; appending 2.0 s on
# top is the synthetic regression the acceptance criterion gates on.
NOISE = [1.0 + 0.01 * ((-1) ** i) for i in range(10)]


def bench_file(path, durations, outcome="passed"):
    path.write_text(json.dumps({
        "schema": "repro.bench/v1",
        "module": "bench_demo.py",
        "tests": [
            {"nodeid": f"benchmarks/bench_demo.py::{name}",
             "outcome": outcome, "duration_s": duration,
             "tables": [], "extra": {}}
            for name, duration in durations.items()
        ],
    }))
    return str(path)


class TestHistory:
    def test_lists_runs(self, tmp_path, capsys):
        path = seed_ledger(tmp_path, [1.0, 1.1, 0.9])
        assert cli.main(["history", "--ledger", path]) == 0
        out = capsys.readouterr().out
        assert "ticket_lock" in out
        assert "3 run(s)" in out

    def test_object_filter(self, tmp_path, capsys):
        path = seed_ledger(tmp_path, [1.0, 1.1])
        store.RunLedger(path).append(_run_record(9, 5.0, object="other"))
        assert cli.main(
            ["history", "--ledger", path, "--object", "other"]
        ) == 0
        out = capsys.readouterr().out
        assert "other" in out and "1 run(s)" in out

    def test_json_output(self, tmp_path, capsys):
        path = seed_ledger(tmp_path, [1.0, 1.1])
        assert cli.main(["history", "--ledger", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.obs/history/v1"
        assert len(payload["runs"]) == 2
        assert payload["runs"][0]["wall_s"] == 1.0

    def test_missing_ledger_is_usage_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope")
        assert cli.main(["history", "--ledger", missing]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_old_layout_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "ledger" / "segments").mkdir(parents=True)
        path = str(tmp_path / "ledger")
        assert cli.main(["history", "--ledger", path]) == 2
        assert "old segments/ layout" in capsys.readouterr().err


class TestTrends:
    def test_table_with_sparkline(self, tmp_path, capsys):
        path = seed_ledger(tmp_path, NOISE)
        assert cli.main(["trends", "--ledger", path]) == 0
        out = capsys.readouterr().out
        assert "wall_s" in out and "cache_hit_rate" in out
        assert any(block in out for block in "▁▂▃▄▅▆▇█")

    def test_json_stats(self, tmp_path, capsys):
        path = seed_ledger(tmp_path, NOISE)
        assert cli.main(
            ["trends", "--ledger", path, "--metric", "wall_s", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.obs/trends/v1"
        stats = payload["metrics"]["wall_s"]
        assert stats["n"] == 10
        assert abs(stats["median"] - 1.0) < 0.011
        assert len(stats["values"]) == 10

    def test_empty_ledger_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "ledger"
        path.mkdir()
        assert cli.main(["trends", "--ledger", str(path)]) == 2
        assert "no matching runs" in capsys.readouterr().err


class TestRegress:
    def test_detects_synthetic_2x_slowdown(self, tmp_path, capsys):
        path = seed_ledger(tmp_path, NOISE + [2.0])
        assert cli.main(["regress", "--ledger", path]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "wall_s" in out

    def test_quiet_on_mad_scale_noise(self, tmp_path, capsys):
        path = seed_ledger(tmp_path, NOISE)
        assert cli.main(["regress", "--ledger", path]) == 0
        assert "regress: ok" in capsys.readouterr().out

    def test_insufficient_history_is_not_gated(self, tmp_path, capsys):
        path = seed_ledger(tmp_path, [1.0, 1.1])
        assert cli.main(["regress", "--ledger", path]) == 0
        assert "insufficient history" in capsys.readouterr().out

    def test_fallback_baseline_gates_cold_ledger(self, tmp_path, capsys):
        baseline = bench_file(tmp_path / "base.json", {"test_x": 0.4})
        path = seed_ledger(tmp_path, [0.9], tests={"test_x": 0.9})
        assert cli.main(
            ["regress", "--ledger", path, "--fallback-baseline", baseline]
        ) == 1
        out = capsys.readouterr().out
        assert "fallback-baseline" in out

    def test_fallback_baseline_ok(self, tmp_path, capsys):
        baseline = bench_file(tmp_path / "base.json", {"test_x": 0.4})
        path = seed_ledger(tmp_path, [0.41], tests={"test_x": 0.41})
        assert cli.main(
            ["regress", "--ledger", path, "--fallback-baseline", baseline]
        ) == 0

    def test_bad_fallback_baseline_is_usage_error(self, tmp_path, capsys):
        path = seed_ledger(tmp_path, [1.0])
        assert cli.main(
            ["regress", "--ledger", path,
             "--fallback-baseline", str(tmp_path / "nope.json")]
        ) == 2
        assert "fallback baseline" in capsys.readouterr().err

    def test_empty_ledger_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "ledger"
        path.mkdir()
        assert cli.main(["regress", "--ledger", str(path)]) == 2
        assert "no runs" in capsys.readouterr().err

    def test_json_output(self, tmp_path, capsys):
        path = seed_ledger(tmp_path, NOISE + [2.0])
        assert cli.main(["regress", "--ledger", path, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.obs/regress/v1"
        assert payload["status"] == "fail"
        findings = payload["objects"]["ticket_lock"]["findings"]
        assert any(
            finding["metric"] == "wall_s" and finding["verdict"] == "fail"
            for finding in findings
        )

    def test_per_object_gating(self, tmp_path, capsys):
        path = seed_ledger(tmp_path, NOISE)
        other = store.RunLedger(path)
        for i, wall in enumerate(NOISE + [2.0]):
            other.append(_run_record(100 + i, wall, object="other"))
        # the regressed object fails the gate, the quiet one doesn't
        assert cli.main(["regress", "--ledger", path]) == 1
        assert cli.main(
            ["regress", "--ledger", path, "--object", "ticket_lock"]
        ) == 0


class TestRecordAndCompact:
    def test_record_ingests_bench_file(self, tmp_path, capsys):
        bench = bench_file(tmp_path / "BENCH_demo.json", {"test_x": 0.4})
        path = str(tmp_path / "ledger")  # record creates the directory
        assert cli.main(["record", "--ledger", path, bench]) == 0
        assert "record:" in capsys.readouterr().out
        runs = store.RunLedger(path).runs()
        assert len(runs) == 1
        assert runs[0]["kind"] == "bench"
        assert runs[0]["object"] == "demo"

    def test_record_bad_schema_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "other"}))
        path = str(tmp_path / "ledger")
        assert cli.main(["record", "--ledger", path, str(bad)]) == 2
        assert "cannot ingest" in capsys.readouterr().err

    def test_compact_applies_keep_last(self, tmp_path, capsys):
        path = seed_ledger(tmp_path, NOISE)
        assert cli.main(
            ["compact", "--ledger", path, "--keep-last", "4"]
        ) == 0
        assert "4 run(s) retained" in capsys.readouterr().out
        assert len(store.RunLedger(path).runs()) == 4


def cert_path(tmp_path, name, ok=True, extra=()):
    cert = Certificate(judgment="A ⊢ x", rule="Fun")
    cert.add("spec total", ok)
    for description in extra:
        cert.add(description, True)
    path = tmp_path / name
    path.write_text(json.dumps(cert.to_json()))
    return str(path)


class TestDiff:
    def test_identical(self, tmp_path, capsys):
        a = cert_path(tmp_path, "a.json")
        b = cert_path(tmp_path, "b.json")
        assert cli.main(["diff", a, b]) == 0
        out = capsys.readouterr().out
        assert "identical (modulo provenance)" in out

    def test_added_obligation(self, tmp_path, capsys):
        a = cert_path(tmp_path, "a.json")
        b = cert_path(tmp_path, "b.json", extra=("logs related",))
        assert cli.main(["diff", a, b]) == 0
        assert "added: A ⊢ x|Fun|logs related" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        a = cert_path(tmp_path, "a.json", ok=True)
        b = cert_path(tmp_path, "b.json", ok=False)
        assert cli.main(["diff", a, b, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.obs/certdiff/v2"
        assert payload["obligations"]["flipped"]
        assert not payload["identical"]

    def test_malformed_is_usage_error(self, tmp_path, capsys):
        a = cert_path(tmp_path, "a.json")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "other"}))
        assert cli.main(["diff", a, str(bad)]) == 2
        assert "repro.cert/v1" in capsys.readouterr().err


class TestDashboardCommand:
    def test_writes_self_contained_html(self, tmp_path, capsys):
        path = seed_ledger(tmp_path, NOISE)
        out = tmp_path / "dash.html"
        assert cli.main(
            ["dashboard", "--ledger", path, "-o", str(out)]
        ) == 0
        html = out.read_text(encoding="utf-8")
        assert html.startswith("<!doctype html>")
        assert "<script" not in html
        assert "10 run(s)" in capsys.readouterr().out


class TestJsonFlags:
    def test_report_json(self, tmp_path, capsys):
        from repro import obs

        obs.enable()
        with obs.span("demo.work", layer="L1"):
            pass
        stream = tmp_path / "events.jsonl"
        obs.write_jsonl(str(stream))
        obs.disable()
        assert cli.main(["report", str(stream), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.obs/report/v1"
        assert payload["spans"]["demo.work"]["count"] == 1

    def test_explain_json(self, tmp_path, capsys):
        path = cert_path(tmp_path, "cert.json", ok=False)
        assert cli.main(["explain", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.obs/explain/v1"
        assert payload["ok"] is False
        assert payload["certificate"]["ok"] is False
        assert len(payload["digest"]) == 64


class TestWatchEmptyStream:
    def test_empty_stream_no_follow_exits_2(self, tmp_path, capsys):
        stream = tmp_path / "hb.jsonl"
        stream.write_text("")
        assert cli.main(["watch", str(stream), "--no-follow"]) == 2
        err = capsys.readouterr().err
        assert "empty" in err and "no records" in err
