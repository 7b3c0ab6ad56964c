"""Service-contract tests against an in-process daemon.

These drive :class:`ServeApp` directly (no sockets) with a stubbed,
time-controllable executor, so every queueing/dedup/drain contract from
the issue is asserted deterministically:

* two identical submissions → one verification, two certificates;
* full admission queue → 429 with a Retry-After estimate;
* per-tenant store isolation (hits never cross tenants);
* graceful drain: in-flight jobs finish, queued jobs are rejected;
* a damaged store entry re-verifies, and a failed store write fails
  its job without wedging the queue;
* malformed requests answer 400 over a real socket.
"""

import asyncio
import errno
import json
import os

import pytest

from conftest import wait_terminal

from repro.cas import StoreWarning


def submit(app, **overrides):
    document = {"stack": "ticket"}
    document.update(overrides)
    return app.submit(document)


class TestDedup:
    def test_two_identical_submissions_one_verification(
        self, run_app, stub_executor
    ):
        async def scenario(app):
            stub_executor.delay_s = 0.05
            status_a, doc_a = submit(app)
            status_b, doc_b = submit(app)
            assert (status_a, status_b) == (202, 202)
            assert doc_b["primary_id"] == doc_a["id"]
            job_a = await wait_terminal(app, doc_a["id"])
            job_b = await wait_terminal(app, doc_b["id"])
            # One verification ran...
            assert stub_executor.calls == [doc_a["id"]]
            assert app.metrics.jobs_deduped == 1
            # ...and both submissions hold a served certificate.
            assert job_a.state == job_b.state == "done"
            blob = app.store.get("public", job_a.fingerprint)
            assert blob is not None
            assert app.store.get("public", job_b.fingerprint) == blob

        run_app(scenario)

    def test_cross_tenant_dedup_stores_per_tenant(
        self, run_app, stub_executor
    ):
        async def scenario(app):
            stub_executor.delay_s = 0.05
            _status, doc_a = submit(app, tenant="alpha")
            _status, doc_b = submit(app, tenant="beta")
            await wait_terminal(app, doc_a["id"])
            await wait_terminal(app, doc_b["id"])
            assert len(stub_executor.calls) == 1  # work shared...
            fingerprint = app.table.get(doc_a["id"]).fingerprint
            # ...but each tenant owns its artifact.
            assert app.store.get("alpha", fingerprint) is not None
            assert app.store.get("beta", fingerprint) is not None

        run_app(scenario)

    def test_completed_job_serves_warm_from_store(
        self, run_app, stub_executor
    ):
        async def scenario(app):
            _status, first = submit(app)
            await wait_terminal(app, first["id"])
            status, doc = submit(app)
            assert status == 200  # warm: terminal in the same response
            assert doc["state"] == "done"
            assert doc["source"] == "store"
            assert len(stub_executor.calls) == 1
            assert app.metrics.warm.count == 1

        run_app(scenario)

    def test_warm_hits_do_not_cross_tenants(self, run_app, stub_executor):
        async def scenario(app):
            _status, first = submit(app, tenant="alpha")
            await wait_terminal(app, first["id"])
            status, doc = submit(app, tenant="beta")
            # Same fingerprint, different tenant: no store hit, new work.
            assert status == 202
            assert doc.get("source") != "store"
            await wait_terminal(app, doc["id"])
            assert len(stub_executor.calls) == 2

        run_app(scenario)


class TestWarmPath:
    @pytest.mark.parametrize("ok", [True, False])
    def test_warm_hit_document_and_events(
        self, run_app, monkeypatch, tmp_path, ok
    ):
        """A warm hit reads ``ok`` from the memo the store put filled, or
        after a restart from the stored document; either way its job
        document and its three-line event file are the same."""

        def execute(descriptor):
            blob = json.dumps({"ok": ok, "stack": descriptor["stack"]})
            return {"ok": ok, "bytes": blob.encode("utf-8"), "wall_s": 0.0}

        monkeypatch.setattr("repro.serve.pool.execute_job", execute)

        async def warm_hit(app):
            status, doc = submit(app)
            assert status == 200
            with open(app.table.get(doc["id"]).events_path, "rb") as handle:
                return doc, handle.read()

        async def cold_then_warm(app):
            _status, first = submit(app)
            await wait_terminal(app, first["id"])
            return await warm_hit(app)

        # A restart keeps the store, not the memo (nor the spool, whose
        # job ids start over).
        store = str(tmp_path / "store")
        hits = [
            run_app(cold_then_warm, store_root=store, spool=str(tmp_path / "a")),
            run_app(warm_hit, store_root=store, spool=str(tmp_path / "b")),
        ]
        pid = os.getpid()
        for doc, events in hits:
            job = doc["id"]
            assert events == (
                f'{{"pid": {pid}, "schema": "repro.obs/heartbeat/v1", '
                f'"t_s": 0.0, "type": "start"}}\n'
                f'{{"job": "{job}", "phase": "store-hit", "pid": {pid}, '
                f'"t_s": 0.0, "type": "heartbeat"}}\n'
                f'{{"job": "{job}", "pid": {pid}, "status": "done", '
                f'"t_s": 0.0, "type": "end"}}\n'
            ).encode("utf-8")
            assert doc == {
                **doc,
                "state": "done", "source": "store", "wall_s": 0.0, "ok": ok,
                "certificate_url": f"/jobs/{job}/certificate",
            }
            assert sorted(doc) == [
                "certificate_url", "fingerprint", "finished_at", "id", "ok",
                "params", "priority", "source", "stack", "state",
                "submitted_at", "tenant", "wall_s",
            ]


class TestAdmission:
    def test_queue_full_answers_429_with_retry_after(
        self, run_app, stub_executor
    ):
        async def scenario(app):
            stub_executor.delay_s = 0.2
            # Worker slot taken by the first job, queue (limit 1) by the
            # second; the third distinct job must be turned away.
            _s, running = submit(app, params={"fuel": 2001})
            _s, queued = submit(app, params={"fuel": 2002})
            status, rejected = submit(app, params={"fuel": 2003})
            assert status == 429
            assert rejected["state"] == "rejected"
            assert rejected["retry_after_s"] >= 1
            assert app.metrics.jobs_rejected == 1
            await wait_terminal(app, running["id"])
            await wait_terminal(app, queued["id"])
            # The backlog drained in admission order afterwards.
            assert app.table.get(queued["id"]).state == "done"

        run_app(scenario, queue_limit=1)

    def test_higher_priority_overtakes_the_queue(
        self, run_app, stub_executor
    ):
        async def scenario(app):
            stub_executor.delay_s = 0.1
            _s, running = submit(app, params={"fuel": 2001})
            _s, low = submit(app, params={"fuel": 2002}, priority=0)
            _s, high = submit(app, params={"fuel": 2003}, priority=9)
            await wait_terminal(app, low["id"])
            order = stub_executor.calls
            assert order.index(high["id"]) < order.index(low["id"])

        run_app(scenario, queue_limit=4)

    def test_malformed_submission_raises_job_error(self, run_app):
        from repro.serve.protocol import JobError

        async def scenario(app):
            try:
                submit(app, stack="nope")
            except JobError:
                return True
            return False

        assert run_app(scenario) is True


class TestDrain:
    def test_drain_finishes_in_flight_and_rejects_queued(
        self, run_app, stub_executor
    ):
        async def scenario(app):
            stub_executor.delay_s = 0.15
            _s, running = submit(app, params={"fuel": 2001})
            _s, queued = submit(app, params={"fuel": 2002})
            app.begin_drain()
            # Queued work is rejected immediately...
            assert app.table.get(queued["id"]).state == "rejected"
            # ...in-flight work runs to completion and lands in the store.
            job = await wait_terminal(app, running["id"])
            assert job.state == "done"
            assert app.store.get("public", job.fingerprint) is not None
            await asyncio.wait_for(app.drained.wait(), timeout=5)
            # New submissions are refused while draining.
            status, doc = submit(app, params={"fuel": 2003})
            assert status == 503
            assert doc["state"] == "rejected"

        run_app(scenario)

    def test_drain_rejects_followers_of_queued_primary(
        self, run_app, stub_executor
    ):
        async def scenario(app):
            stub_executor.delay_s = 0.15
            _s, running = submit(app, params={"fuel": 2001})
            _s, queued = submit(app, params={"fuel": 2002})
            _s, follower = submit(app, params={"fuel": 2002})
            assert follower["primary_id"] == queued["id"]
            app.begin_drain()
            assert app.table.get(queued["id"]).state == "rejected"
            assert app.table.get(follower["id"]).state == "rejected"
            await wait_terminal(app, running["id"])

        run_app(scenario, queue_limit=4)


class TestStoreFaults:
    def test_damaged_entry_is_a_miss_that_reverifies(
        self, run_app, stub_executor
    ):
        async def scenario(app):
            _status, first = submit(app)
            job = await wait_terminal(app, first["id"])
            path = app.store._path("public", job.fingerprint)
            with open(path, "r+b") as handle:
                handle.seek(-2, os.SEEK_END)
                handle.write(b"!")
            with pytest.warns(StoreWarning, match=job.fingerprint):
                status, doc = submit(app)
            assert status == 202  # not served from the store
            again = await wait_terminal(app, doc["id"])
            assert again.state == "done"
            assert len(stub_executor.calls) == 2
            # The re-verified certificate was stored again, intact.
            assert app.store.get("public", job.fingerprint) is not None

        run_app(scenario)

    def test_failed_store_write_fails_the_job_and_keeps_pumping(
        self, run_app, stub_executor, monkeypatch
    ):
        real_replace = os.replace

        def full_disk_once(src, dst):
            monkeypatch.setattr(os, "replace", real_replace)
            raise OSError(errno.ENOSPC, "No space left on device")

        async def scenario(app):
            stub_executor.delay_s = 0.05
            monkeypatch.setattr(os, "replace", full_disk_once)
            _s, first = submit(app, params={"fuel": 2001})
            _s, second = submit(app, params={"fuel": 2002})
            with pytest.warns(StoreWarning, match="No space left"):
                failed = await wait_terminal(app, first["id"])
            assert failed.state == "failed"
            assert "certificate store write failed" in failed.error
            assert app.store.get("public", failed.fingerprint) is None
            done = await wait_terminal(app, second["id"], timeout_s=5.0)
            assert done.state == "done"
            assert app.metrics.jobs_failed == 1

        run_app(scenario, queue_limit=2)

    def test_failed_write_fails_only_that_tenants_jobs(
        self, run_app, stub_executor, monkeypatch
    ):
        real_replace = os.replace

        def beta_disk_full(src, dst):
            if f"{os.sep}beta{os.sep}" in dst:
                raise OSError(errno.ENOSPC, "No space left on device")
            real_replace(src, dst)

        async def scenario(app):
            stub_executor.delay_s = 0.05
            monkeypatch.setattr(os, "replace", beta_disk_full)
            _s, alpha = submit(app, tenant="alpha")
            _s, beta = submit(app, tenant="beta")
            assert beta["primary_id"] == alpha["id"]  # one verification
            with pytest.warns(StoreWarning, match="beta"):
                await wait_terminal(app, alpha["id"])
            assert app.table.get(alpha["id"]).state == "done"
            failed = app.table.get(beta["id"])
            assert failed.state == "failed"
            assert failed.error == (
                "certificate store write failed for tenant 'beta'"
            )

        run_app(scenario)


async def _raw_request(app, request: bytes):
    """Send raw bytes to the app over a localhost socket."""
    server = await asyncio.start_server(app.handle, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(request)
        await writer.drain()
        response = await reader.read()
        writer.close()
    finally:
        server.close()
        await server.wait_closed()
    head, _sep, body = response.partition(b"\r\n\r\n")
    return int(head.split(b" ")[1]), json.loads(body)


class TestMalformedRequests:
    def test_unsafe_store_name_is_400(self, run_app):
        async def scenario(app):
            return await _raw_request(
                app, b"GET /certs/.hidden/x HTTP/1.1\r\n\r\n"
            )

        status, doc = run_app(scenario)
        assert status == 400
        assert "tenant" in doc["error"]

    def test_non_numeric_content_length_is_400(self, run_app):
        async def scenario(app):
            return await _raw_request(
                app,
                b"POST /jobs HTTP/1.1\r\nContent-Length: ten\r\n\r\n{}",
            )

        status, doc = run_app(scenario)
        assert status == 400
        assert "Content-Length" in doc["error"]

    @pytest.mark.parametrize("route", ["", "/certificate"])
    def test_non_numeric_timeout_is_400(self, run_app, stub_executor, route):
        async def scenario(app):
            stub_executor.delay_s = 0.2
            _s, doc = submit(app)
            target = f"/jobs/{doc['id']}{route}?wait=1&timeout_s=soon"
            result = await _raw_request(
                app, f"GET {target} HTTP/1.1\r\n\r\n".encode()
            )
            await wait_terminal(app, doc["id"])
            return result

        status, doc = run_app(scenario)
        assert status == 400
        assert "timeout_s" in doc["error"]
