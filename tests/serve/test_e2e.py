"""End-to-end tests: a real daemon subprocess, real verifications.

One daemon (module-scoped) serves the read-path tests; the SIGTERM
drain test boots its own so it can kill it.  These are the slowest
tests in the suite (~seconds): they cover exactly the contracts that
need real processes — byte identity across the wire, cross-process
dedup, the HTTP progress stream, and signal-driven drain.
"""

import json
import os
import signal
import subprocess
import sys

import pytest

from repro.serve.protocol import result_bytes, run_stack
from repro.serve.smoke import boot_daemon
from repro.serve.store import CertificateStore


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    spool = str(tmp_path_factory.mktemp("serve-spool"))
    process, client = boot_daemon(spool)
    yield client, spool
    process.send_signal(signal.SIGTERM)
    process.wait(timeout=30)


class TestServedBytes:
    @pytest.mark.usefixtures("obs_off")
    def test_cold_then_warm_byte_identity_with_cli(self, daemon):
        client, _spool = daemon
        params = {"domain": [1, 2], "lock": "q0"}
        doc = client.submit("ticket", params, tenant="e2e")
        final = client.job(doc["id"], wait=True)
        assert final["state"] == "done" and final["ok"] is True
        served = client.certificate(doc["id"])
        # The acceptance bar: served bytes == a serial CLI run's bytes.
        assert served == result_bytes(run_stack("ticket", params))

        # Warm replay: same fingerprint, served from the store, and the
        # content-addressed endpoint returns the identical payload.
        warm = client.submit("ticket", params, tenant="e2e")
        assert warm["state"] == "done"
        assert warm["source"] == "store"
        assert client.stored("e2e", warm["fingerprint"]) == served

    def test_batch_dedup_shares_work_across_tenants(self, daemon):
        client, _spool = daemon
        before = client.metrics()["latency"]["cold"]["count"]
        docs = client.submit_batch([
            {"stack": "mcs", "params": {"domain": [1, 2]}, "tenant": "ta"},
            {"stack": "mcs", "params": {"domain": [1, 2]}, "tenant": "tb"},
        ])
        finals = [client.job(doc["id"], wait=True) for doc in docs]
        assert all(doc["state"] == "done" for doc in finals)
        after = client.metrics()
        # Two submissions, one verification...
        assert after["latency"]["cold"]["count"] == before + 1
        assert after["jobs"]["deduped"] >= 1
        # ...and each tenant holds its own byte-identical artifact.
        fingerprint = finals[0]["fingerprint"]
        assert client.stored("ta", fingerprint) == client.stored(
            "tb", fingerprint
        )

    def test_watch_url_renders_the_job_stream(self, daemon):
        client, _spool = daemon
        doc = client.submit("queue", {"domain": [1, 2]})
        client.job(doc["id"], wait=True)
        result = subprocess.run(
            [sys.executable, "-m", "repro.obs", "watch", "--no-follow",
             "--url", f"{client.base_url}/jobs/{doc['id']}/events"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": "src"},
        )
        assert result.returncode == 0, result.stderr
        assert "-- finished: done" in result.stdout

    def test_watch_url_missing_job_keeps_exit_2_diagnostic(self, daemon):
        client, _spool = daemon
        result = subprocess.run(
            [sys.executable, "-m", "repro.obs", "watch", "--no-follow",
             "--url", f"{client.base_url}/jobs/nope/events"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": "src"},
        )
        assert result.returncode == 2
        assert "error:" in result.stderr

    def test_metrics_document_shape(self, daemon):
        client, _spool = daemon
        metrics = client.metrics()
        assert metrics["schema"] == "repro.serve/metrics/v1"
        assert metrics["workers"]["alive"] >= 1
        assert metrics["cache"]["hits"] >= 1  # warm replay above
        assert metrics["latency"]["warm"]["p50_ms"] is not None


class TestDrain:
    def test_sigterm_finishes_in_flight_then_exits_zero(self, tmp_path):
        process, client = boot_daemon(str(tmp_path / "spool"))
        doc = client.submit("ticket", {"domain": [1, 2], "fuel": 2001})
        process.send_signal(signal.SIGTERM)
        process.wait(timeout=60)
        assert process.returncode == 0
        log = process.stdout.read().decode("utf-8", "replace")
        assert "repro-serve stopped" in log
        # The in-flight verification ran to completion and its
        # certificate landed in the store before the workers exited.
        store = CertificateStore(str(tmp_path / "spool" / "store"))
        assert store._path("public", doc["fingerprint"]) == os.path.join(
            str(tmp_path / "spool"), "store", "public",
            doc["fingerprint"][:2], doc["fingerprint"] + ".json",
        )
        payload = store.get("public", doc["fingerprint"])
        assert payload is not None
        assert json.loads(payload)["ok"] is True
