"""Run-ledger behaviour under the fork pool (``REPRO_JOBS=2``).

Three contracts from DESIGN.md:

- ledger notes produced inside fork-pool workers (cache hits/misses)
  ship back in plan order, so the merged run record is deterministic —
  a 2-worker record matches the serial one modulo wall-clock fields;
- the record store survives concurrent appenders: one writer per
  process, one atomically renamed file per record, damaged records
  skipped on read with a warning;
- arming the ledger never perturbs verification: with obs off the
  serial, parallel, and cache-warm certificate bytes stay identical.
"""

from __future__ import annotations

import json
import multiprocessing
import sys

import pytest

from repro.cas import ContentStore, StoreWarning
from repro.obs import store
from tests.parallel.test_equivalence import cert_bytes, certified_stack

from repro.core import check_soundness
from repro.envflags import pinned


CLIENTS = [
    {1: [("bump2", ())], 2: [("bump2", ())]},
    {1: [("bump2", ()), ("bump2", ())], 2: [("bump2", ())]},
]


def _soundness(jobs):
    layer = certified_stack()
    with pinned(jobs=jobs):
        return check_soundness(layer, clients=CLIENTS, max_rounds=24)


@pytest.fixture(autouse=True)
def _ledger_isolation():
    store.disable_ledger(flush=False)
    yield
    store.disable_ledger(flush=False)


VOLATILE = ("ts", "wall_s", "env", "host", "digest")


def _stable_view(record):
    """A run record with every wall-clock / per-host field removed."""
    stable = {
        key: value for key, value in record.items() if key not in VOLATILE
    }
    stable["rules"] = {
        name: entry["count"] for name, entry in record.get("rules", {}).items()
    }
    stable["certificates"] = [
        {key: value for key, value in cert.items() if key != "wall_s"}
        for cert in record.get("certificates", [])
    ]
    cache = dict(record.get("cache") or {})
    cache.pop("hit_latency_s", None)
    cache.pop("miss_latency_s", None)
    stable["cache"] = cache
    return stable


class TestWorkerMergeDeterminism:
    def _record(self, tmp_path, name, jobs):
        path = tmp_path / name
        with store.ledger(str(path), object="counter_stack"):
            cert = _soundness(jobs)
            assert cert.ok
        runs = store.RunLedger(str(path)).runs()
        assert len(runs) == 1
        return runs[0]

    def test_parallel_record_matches_serial(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        serial = self._record(tmp_path, "serial", jobs=1)
        monkeypatch.setenv("REPRO_JOBS", "2")
        parallel = self._record(tmp_path, "parallel", jobs=2)
        assert _stable_view(parallel) == _stable_view(serial)

    def test_parallel_record_is_reproducible(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        first = self._record(tmp_path, "first", jobs=2)
        second = self._record(tmp_path, "second", jobs=2)
        assert _stable_view(first) == _stable_view(second)

    def test_worker_cache_hits_merge_into_record(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_JOBS", "2")
        _soundness(jobs=2)  # cold: populate the cache, no ledger armed
        record = self._record(tmp_path, "warm", jobs=2)
        cache = record["cache"]
        assert cache["hits"] > 0
        # warm run: every rule lookup hits, nothing recomputes
        assert cache["misses"] == 0


def _append_worker(ledger_path, worker, count):
    ledger = store.RunLedger(ledger_path)
    for i in range(count):
        ledger.append({
            "schema": store.RUN_SCHEMA,
            "kind": "engine",
            "ts": 1000.0 + worker + i / 1000.0,
            "object": f"w{worker}",
            "ok": True,
            "wall_s": 1.0,
            "payload": "x" * 256,
            "seq": i,
        })


class TestConcurrentAppenders:
    def test_torn_write_tolerance(self, tmp_path):
        """Four processes hammering one ledger never corrupt a record."""
        path = str(tmp_path / "ledger")
        store.RunLedger(path)  # create the directory up front
        ctx = multiprocessing.get_context("fork")
        workers = [
            ctx.Process(target=_append_worker, args=(path, worker, 50))
            for worker in range(4)
        ]
        for proc in workers:
            proc.start()
        for proc in workers:
            proc.join()
            assert proc.exitcode == 0
        runs = store.RunLedger(path).runs()
        assert len(runs) == 4 * 50
        for worker in range(4):
            mine = [r for r in runs if r["object"] == f"w{worker}"]
            assert sorted(r["seq"] for r in mine) == list(range(50))

    def test_reader_skips_foreign_tail(self, tmp_path):
        path = str(tmp_path / "ledger")
        ledger = store.RunLedger(path)
        ledger.append({
            "schema": store.RUN_SCHEMA, "ts": 1.0, "object": "a",
            "ok": True, "wall_s": 1.0,
        })
        torn = ledger.append({
            "schema": store.RUN_SCHEMA, "ts": 2.0, "object": "torn",
            "ok": True, "wall_s": 1.0,
        })
        with open(ContentStore(path, ".json").path(torn), "a",
                  encoding="utf-8") as fh:
            fh.write('{"schema": "repro.obs/run/v1", "object": "torn"')
        with pytest.warns(StoreWarning, match=torn):
            assert [r["object"] for r in ledger.runs()] == ["a"]


class TestCertificateBytesUnperturbed:
    """Acceptance: ledger armed + obs off leaves cert bytes identical."""

    @pytest.mark.usefixtures("obs_off")
    def test_serial_parallel_cached_identical(self, tmp_path, monkeypatch):
        reference = _soundness(jobs=1)  # no ledger armed at all
        with store.ledger(str(tmp_path / "s"), object="counter_stack"):
            serial = _soundness(jobs=1)
        monkeypatch.setenv("REPRO_JOBS", "2")
        with store.ledger(str(tmp_path / "p"), object="counter_stack"):
            parallel = _soundness(jobs=2)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        with store.ledger(str(tmp_path / "c1"), object="counter_stack"):
            cold = _soundness(jobs=2)
        with store.ledger(str(tmp_path / "c2"), object="counter_stack"):
            warm = _soundness(jobs=2)
        for cert in (serial, parallel, cold, warm):
            assert cert_bytes(cert) == cert_bytes(reference)

    def test_env_armed_subprocess_fig5_stage(self, tmp_path):
        """``REPRO_LEDGER`` set in the environment, real lock derivation."""
        import subprocess

        script = (
            "import json, sys\n"
            "from repro.objects.ticket_lock import certify_ticket_lock\n"
            "stack = certify_ticket_lock([1, 2], lock='q0')\n"
            "payload = json.dumps(stack.composed.certificate.to_json(),"
            " sort_keys=True, ensure_ascii=False)\n"
            "sys.stdout.write(payload)\n"
        )
        import os

        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env = dict(os.environ, PYTHONPATH="src")
        env.pop("REPRO_LEDGER", None)
        plain = subprocess.run(
            [sys.executable, "-c", script], cwd=root,
            env=env, capture_output=True, text=True, check=True,
        )
        env["REPRO_LEDGER"] = str(tmp_path / "ledger")
        env["REPRO_LEDGER_OBJECT"] = "ticket_lock"
        with_ledger = subprocess.run(
            [sys.executable, "-c", script], cwd=root,
            env=env, capture_output=True, text=True, check=True,
        )
        assert with_ledger.stdout == plain.stdout
        runs = store.RunLedger(str(tmp_path / "ledger")).runs()
        assert len(runs) == 1
        assert runs[0]["object"] == "ticket_lock"
        cert = json.loads(plain.stdout)
        assert cert["ok"] and cert["provenance"] is None
