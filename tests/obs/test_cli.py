"""The ``python -m repro.obs`` command-line interface."""

from __future__ import annotations

import json
import os

import pytest

from repro import obs
from repro.core.certificate import Certificate
from repro.obs import build_counterexample, cli, store


def bench_payload(durations, outcome="passed"):
    return {
        "schema": "repro.bench/v1",
        "module": "bench_demo.py",
        "tests": [
            {
                "nodeid": f"benchmarks/bench_demo.py::{name}",
                "outcome": outcome,
                "duration_s": duration,
                "tables": [],
                "extra": {},
            }
            for name, duration in durations.items()
        ],
    }


def write_bench(path, durations, **kwargs):
    path.write_text(json.dumps(bench_payload(durations, **kwargs)))
    return str(path)


def regress(baseline, candidate, *flags):
    """Gate ``candidate`` (recorded on a fresh, one-run ledger) against
    ``baseline`` through ``regress --fallback-baseline``."""
    ledger = os.path.join(os.path.dirname(candidate), "ledger")
    store.ingest_bench(ledger, candidate)
    return cli.main([
        "regress", "--ledger", ledger, "--fallback-baseline", baseline,
        *flags,
    ])


class TestCompare:
    """Cold-start comparison against a committed baseline file."""

    def test_identical_passes(self, tmp_path, capsys):
        base = write_bench(tmp_path / "a.json", {"test_x": 0.4})
        cand = write_bench(tmp_path / "b.json", {"test_x": 0.4})
        assert regress(base, cand) == 0
        assert "regress: ok" in capsys.readouterr().out

    def test_injected_2x_slowdown_fails(self, tmp_path, capsys):
        base = write_bench(tmp_path / "a.json", {"test_x": 0.4})
        cand = write_bench(tmp_path / "b.json", {"test_x": 0.9})
        assert regress(base, cand) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "2.2" in out  # 0.9/0.4 = 2.25x

    def test_warn_band_passes_with_warning(self, tmp_path, capsys):
        base = write_bench(tmp_path / "a.json", {"test_x": 0.4})
        cand = write_bench(tmp_path / "b.json", {"test_x": 0.65})
        assert regress(base, cand) == 0
        assert "WARN" in capsys.readouterr().out

    def test_min_seconds_skips_noise(self, tmp_path, capsys):
        base = write_bench(tmp_path / "a.json", {"tiny": 0.001})
        cand = write_bench(tmp_path / "b.json", {"tiny": 0.04})
        assert regress(base, cand, "--json") == 0
        (result,) = json.loads(capsys.readouterr().out)["objects"].values()
        assert result["findings"] == []

    def test_thresholds_configurable(self, tmp_path):
        base = write_bench(tmp_path / "a.json", {"test_x": 0.4})
        cand = write_bench(tmp_path / "b.json", {"test_x": 0.65})
        assert regress(base, cand, "--fallback-fail", "1.5") == 1

    def test_failed_candidate_outcome_fails(self, tmp_path, capsys):
        base = write_bench(tmp_path / "a.json", {"test_x": 0.4})
        cand = write_bench(tmp_path / "b.json", {"test_x": 0.4},
                           outcome="failed")
        assert regress(base, cand) == 1
        assert "candidate outcome 'failed'" in capsys.readouterr().out

    def test_bad_schema_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "other/v9", "tests": []}))
        cand = write_bench(tmp_path / "b.json", {"test_x": 0.4})
        assert regress(str(bad), cand) == 2
        assert "repro.bench/v1" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, tmp_path):
        cand = write_bench(tmp_path / "b.json", {"test_x": 0.4})
        assert regress(str(tmp_path / "nope.json"), cand) == 2

    def test_json_output(self, tmp_path, capsys):
        base = write_bench(tmp_path / "a.json", {"test_x": 0.8})
        cand = write_bench(tmp_path / "b.json", {"test_x": 0.4})
        assert regress(base, cand, "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.obs/regress/v1"
        (result,) = payload["objects"].values()
        assert result["mode"] == "fallback-baseline"
        (finding,) = result["findings"]
        assert finding["ratio"] == 0.5
        assert finding["verdict"] == "ok"

    def test_json_output_regression_exit_code(self, tmp_path, capsys):
        base = write_bench(tmp_path / "a.json", {"test_x": 0.4})
        cand = write_bench(tmp_path / "b.json", {"test_x": 0.9})
        assert regress(base, cand, "--json") == 1
        assert json.loads(capsys.readouterr().out)["status"] == "fail"

    def test_baselines_merge_by_nodeid(self, tmp_path, capsys):
        base_x = write_bench(tmp_path / "x.json", {"test_x": 0.4})
        base_y = write_bench(tmp_path / "y.json", {"test_y": 0.4})
        cand = write_bench(tmp_path / "b.json", {"test_x": 0.4, "test_y": 0.9})
        assert regress(base_x, cand, "--fallback-baseline", base_y) == 1
        assert "test_y" in capsys.readouterr().out


class TestCompareRobustness:
    """Malformed baselines exit 2 (usage) with a one-line diagnostic —
    never a traceback, and never the regression exit code 1."""

    def _diagnostic(self, capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1
        return err

    def test_missing_baseline_names_the_file(self, tmp_path, capsys):
        cand = write_bench(tmp_path / "b.json", {"test_x": 0.4})
        missing = str(tmp_path / "nope.json")
        assert regress(missing, cand) == 2
        assert "nope.json" in self._diagnostic(capsys)

    def test_invalid_json_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{truncated")
        cand = write_bench(tmp_path / "b.json", {"test_x": 0.4})
        assert regress(str(bad), cand) == 2
        err = self._diagnostic(capsys)
        assert "bad.json" in err and "not valid JSON" in err

    def test_non_object_payload(self, tmp_path, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2, 3]")
        cand = write_bench(tmp_path / "b.json", {"test_x": 0.4})
        assert regress(str(bad), cand) == 2
        assert "expected object" in self._diagnostic(capsys)

    def test_non_list_tests(self, tmp_path, capsys):
        bad = tmp_path / "tests.json"
        bad.write_text(json.dumps({"schema": "repro.bench/v1", "tests": {}}))
        cand = write_bench(tmp_path / "b.json", {"test_x": 0.4})
        assert regress(str(bad), cand) == 2
        assert "'tests'" in self._diagnostic(capsys)

    def test_entry_without_nodeid_is_located(self, tmp_path, capsys):
        bad = tmp_path / "noid.json"
        bad.write_text(json.dumps({
            "schema": "repro.bench/v1",
            "tests": [{"nodeid": "ok", "duration_s": 1}, {"duration_s": 2}],
        }))
        cand = write_bench(tmp_path / "b.json", {"test_x": 0.4})
        assert regress(str(bad), cand) == 2
        assert "tests[1]" in self._diagnostic(capsys)

    def test_malformed_candidate_also_exits_2(self, tmp_path, capsys):
        # A bad second baseline fails as loudly as a bad first one.
        good = write_bench(tmp_path / "a.json", {"test_x": 0.4})
        bad = tmp_path / "bad.json"
        bad.write_text("null")
        cand = write_bench(tmp_path / "b.json", {"test_x": 0.4})
        assert regress(good, cand, "--fallback-baseline", str(bad)) == 2
        assert "bad.json" in self._diagnostic(capsys)


class TestReport:
    def test_renders_loaded_event_stream(self, tmp_path, capsys):
        obs.enable()
        with obs.span("demo.work", layer="L1"):
            pass
        builder = obs.CoverageBuilder("env_contexts", budget=4)
        builder.visit(depth=1, n=2)
        builder.record()
        path = tmp_path / "events.jsonl"
        obs.write_jsonl(str(path))
        # Render from disk with the live state cleared: everything shown
        # must come from the loaded stream.
        obs.disable()
        obs.collector().reset()
        obs.COVERAGE.reset()
        assert cli.main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "demo.work" in out
        assert "env_contexts" in out

    def test_missing_stream_is_usage_error(self, tmp_path, capsys):
        assert cli.main(["report", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err


@pytest.fixture
def failed_cert_path(tmp_path):
    cert = Certificate(judgment="L ⊢ M : L'", rule="Fun")
    cert.add("spec total", True)
    counterexample = build_counterexample(
        kind="simulation",
        judgment="L ⊢ M : L'",
        obligation="logs related",
        status="logs unrelated",
        schedule=(0, 1),
        still_fails=lambda s: 1 in s,
    )
    cert.add(
        "logs related", False, "logs unrelated",
        evidence={"counterexample": counterexample},
    )
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert.to_json()))
    return str(path)


class TestExplain:
    def test_renders_failures_and_counterexamples(self, failed_cert_path, capsys):
        assert cli.main(["explain", failed_cert_path]) == 0
        out = capsys.readouterr().out
        assert "[FAILED] L ⊢ M : L'" in out
        assert "✗ logs related" in out
        assert "shrunk" in out  # (0, 1) minimizes to (1,)
        assert "1 counterexample(s) attached" in out
        assert "✓ spec total" not in out

    def test_all_flag_shows_passed_obligations(self, failed_cert_path, capsys):
        assert cli.main(["explain", failed_cert_path, "--all"]) == 0
        assert "✓ spec total" in capsys.readouterr().out

    def test_wrong_schema_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "notcert.json"
        path.write_text(json.dumps({"schema": "other", "ok": True}))
        assert cli.main(["explain", str(path)]) == 2
        assert "repro.cert/v1" in capsys.readouterr().err

    def test_renders_profile_provenance(self, tmp_path, capsys):
        cert = Certificate(judgment="L ⊢ M : L'", rule="Fun")
        cert.add("spec total", True)
        cert.provenance = {
            "wall_time_s": 1.25,
            "profile": {
                "redundancy": {
                    "axis": "machine.schedules", "explored": 10634,
                    "distinct": 1670, "duplicates": 3648, "replayed": 5316,
                    "ratio": 0.843, "branching": {"2": 5316},
                },
                "obligations": [
                    {"obligation": "P0", "wall_us": 5_502_000,
                     "states": 10634, "ratio": 0.843},
                ],
            },
        }
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert.to_json()))
        assert cli.main(["explain", str(path)]) == 0
        out = capsys.readouterr().out
        assert "redundancy[machine.schedules]: ratio=84.3%" in out
        assert "10634 explored" in out
        assert "branching=2x5316" in out
        assert "P0: 10634 state(s) explored" in out
        assert "wall 5.502s" in out


def heartbeat_stream(path, records):
    path.write_text(
        "".join(json.dumps(record) + "\n" for record in records)
    )
    return str(path)


class TestWatch:
    RECORDS = [
        {"type": "start", "schema": "repro.obs/heartbeat/v1", "t_s": 0.0,
         "pid": 41},
        {"type": "heartbeat", "t_s": 0.4, "pid": 41,
         "phase": "sim.env_contexts", "explored": 120, "budget": 20000,
         "rate_per_s": 300.0, "eta_s": 66.3},
        {"type": "heartbeat", "t_s": 0.9, "pid": 41,
         "phase": "machine.schedules", "explored": 800},
        {"type": "end", "t_s": 2.2, "pid": 41, "status": "done"},
    ]

    def test_no_follow_renders_stream(self, tmp_path, capsys):
        stream = heartbeat_stream(tmp_path / "hb.jsonl", self.RECORDS)
        assert cli.main(["watch", "--no-follow", stream]) == 0
        out = capsys.readouterr().out
        assert "stream started (pid 41)" in out
        assert "sim.env_contexts" in out
        assert "120/20000" in out
        assert "300.0/s" in out
        assert "eta 66.3s" in out
        assert "machine.schedules" in out
        assert "finished: done after 2.2s" in out

    def test_follow_stops_on_end_record(self, tmp_path, capsys):
        stream = heartbeat_stream(tmp_path / "hb.jsonl", self.RECORDS)
        # Follow mode on a complete stream must terminate via the end
        # record, not hang; the timeout is a safety net only.
        assert cli.main([
            "watch", stream, "--interval", "0.01", "--timeout", "5",
        ]) == 0
        assert "finished: done" in capsys.readouterr().out

    def test_unknown_record_types_are_skipped(self, tmp_path, capsys):
        records = list(self.RECORDS)
        records.insert(2, {"type": "future.extension", "payload": 1})
        stream = heartbeat_stream(tmp_path / "hb.jsonl", records)
        assert cli.main(["watch", "--no-follow", stream]) == 0
        assert "future.extension" not in capsys.readouterr().out

    def test_torn_lines_are_skipped(self, tmp_path, capsys):
        stream = tmp_path / "hb.jsonl"
        stream.write_text(
            json.dumps(self.RECORDS[0]) + "\n"
            + '{"type": "heartbeat", "t_s"\n'  # torn mid-record
            + json.dumps(self.RECORDS[-1]) + "\n"
        )
        assert cli.main(["watch", "--no-follow", str(stream)]) == 0
        out = capsys.readouterr().out
        assert "stream started" in out
        assert "finished: done" in out

    def test_missing_stream_no_follow_is_usage_error(self, tmp_path, capsys):
        assert cli.main([
            "watch", "--no-follow", str(tmp_path / "nope.jsonl")
        ]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_follow_times_out_waiting_for_stream(self, tmp_path, capsys):
        assert cli.main([
            "watch", str(tmp_path / "nope.jsonl"),
            "--interval", "0.01", "--timeout", "0.05",
        ]) == 2
        assert "did not appear" in capsys.readouterr().err

    def test_live_writer_to_watch_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "hb.jsonl"
        obs.start_heartbeat(str(path), interval_s=0.0)
        obs.heartbeat("sim.discharge", explored=3, budget=9, force=True)
        obs.stop_heartbeat()
        assert cli.main(["watch", "--no-follow", str(path)]) == 0
        out = capsys.readouterr().out
        assert "sim.discharge" in out
        assert "3/9" in out
        assert "finished: done" in out
