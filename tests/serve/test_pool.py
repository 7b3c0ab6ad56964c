"""The daemon's resident workers under fault injection.

Real daemons and real SIGKILLs, with a timeout on every wait, so a hang
fails instead of stalling the suite.  A killed worker fails the job it
held and that job's followers, naming the signal, and closes the job's
event stream with an ``end`` record; ``/healthz`` turns 503; a second
worker keeps serving; with no worker left, queued and new cold jobs are
refused while stored certificates are still served; a SIGTERM to the
whole process group drains; and a SIGKILLed daemon takes its workers
with it.  The workers are found through
``/proc``, so these tests run on Linux only.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.serve.client import ServeClient, ServeError
from repro.serve.store import CertificateStore

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self"), reason="finds workers through /proc"
)

#: Every wait in this file gives up after this many seconds.
TIMEOUT_S = 30.0

#: A cold job long enough to be killed mid-run.
SLOW = ("fig5", {})


def group_members(pgid):
    """The pids of process group ``pgid`` that are alive (not zombies)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited while we looked
        state, _ppid, pgrp = stat[stat.rindex(")") + 2:].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            members.append(int(entry))
    return members


@pytest.fixture()
def boot(tmp_path):
    """Start daemons in their own process groups; kill every group at
    teardown, whatever the test left."""
    processes = []

    def start(workers):
        spool = str(tmp_path / f"spool{len(processes)}")
        ready = os.path.join(spool, "ready.json")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0",
             "--workers", str(workers), "--spool", spool,
             "--ready-file", ready],
            stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        processes.append(process)
        deadline = time.monotonic() + TIMEOUT_S
        while not os.path.exists(ready):
            assert process.poll() is None, "daemon died during boot"
            assert time.monotonic() < deadline, "daemon did not boot"
            time.sleep(0.02)
        with open(ready, encoding="utf-8") as handle:
            url = json.load(handle)["url"]
        return process, ServeClient(url, timeout_s=2 * TIMEOUT_S), spool

    yield start
    for process in processes:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait(timeout=TIMEOUT_S)


def worker_running(spool, job_id):
    """The pid of the worker running ``job_id``: its heartbeat writer's
    ``start`` record in the job's event stream."""
    path = os.path.join(spool, "events", f"{job_id}.jsonl")
    deadline = time.monotonic() + TIMEOUT_S
    while time.monotonic() < deadline:
        try:
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    record = json.loads(line)
                    if record.get("type") == "start":
                        return record["pid"]
        except OSError:
            pass
        time.sleep(0.005)
    raise TimeoutError(f"no worker started {job_id}")


def finished(client, job_id):
    doc = client.job(job_id, wait=True, timeout_s=TIMEOUT_S)
    assert doc["state"] in ("done", "failed", "rejected"), doc
    return doc


def refused(call):
    """The status and body of a request the daemon must refuse."""
    with pytest.raises(ServeError) as caught:
        call()
    return caught.value.status, caught.value.body


def test_killed_worker_fails_its_job_and_followers(boot):
    _process, client, spool = boot(1)
    job = client.submit(*SLOW, tenant="ta")
    follower = client.submit(*SLOW, tenant="tb")
    assert follower["primary_id"] == job["id"]
    worker = worker_running(spool, job["id"])
    os.kill(worker, signal.SIGKILL)

    for doc in (finished(client, job["id"]), finished(client, follower["id"])):
        assert doc["state"] == "failed"
        assert doc["error"] == f"worker killed by SIGKILL (pid {worker})"
    events = list(client.events(job["id"], follow=False))
    assert events[-1]["type"] == "end"
    assert events[-1]["status"] == "failed"
    assert "SIGKILL" in events[-1]["error"]

    status, health = refused(client.healthz)
    assert status == 503 and health["ok"] is False
    assert health["workers"]["alive"] == 0
    assert health["workers"]["dead"] == [
        f"worker killed by SIGKILL (pid {worker})"
    ]
    assert not os.path.exists(f"/proc/{worker}")  # reaped, not a zombie


def test_one_dead_worker_of_two_leaves_the_other_serving(boot):
    _process, client, spool = boot(2)
    job = client.submit(*SLOW)
    worker = worker_running(spool, job["id"])
    os.kill(worker, signal.SIGKILL)
    assert "SIGKILL" in finished(client, job["id"])["error"]

    cold = client.submit("ticket", {"lock": "after-death"})
    doc = finished(client, cold["id"])
    assert doc["state"] == "done" and doc["ok"] is True
    assert worker_running(spool, cold["id"]) != worker
    status, health = refused(client.healthz)
    assert status == 503 and health["ok"] is False
    assert health["workers"]["alive"] == 1
    assert len(health["workers"]["dead"]) == 1


def test_no_live_worker_refuses_cold_work_and_serves_the_store(boot):
    _process, client, spool = boot(1)
    stored = client.submit("ticket", {"lock": "kept"})
    assert finished(client, stored["id"])["state"] == "done"
    job = client.submit(*SLOW)
    queued = client.submit("ticket", {"lock": "queued"})
    assert queued["state"] == "queued"
    worker = worker_running(spool, job["id"])
    os.kill(worker, signal.SIGKILL)

    cause = f"no live worker: worker killed by SIGKILL (pid {worker})"
    doc = finished(client, queued["id"])
    assert doc["state"] == "rejected" and doc["error"] == cause
    status, body = refused(lambda: client.submit("ticket", {"lock": "new"}))
    assert status == 503
    assert body["state"] == "rejected" and body["error"] == cause

    hit = client.submit("ticket", {"lock": "kept"})
    assert hit["state"] == "done" and hit["source"] == "store"
    assert client.certificate(hit["id"]) == client.certificate(stored["id"])


def test_sigterm_to_the_group_drains_the_job_in_hand(boot):
    # As a terminal's Ctrl-C or a service stop sends it: the workers
    # ignore it, so the drain finishes the job and stores its result.
    process, client, spool = boot(1)
    job = client.submit(*SLOW)
    worker_running(spool, job["id"])
    os.killpg(process.pid, signal.SIGTERM)
    assert process.wait(timeout=TIMEOUT_S) == 0
    store = CertificateStore(os.path.join(spool, "store"))
    assert json.loads(store.get("public", job["fingerprint"]))["ok"] is True


def test_sigkilled_daemon_leaves_no_worker(boot):
    process, client, _spool = boot(2)
    assert client.healthz()["workers"]["alive"] == 2
    workers = set(group_members(process.pid)) - {process.pid}
    assert len(workers) == 2
    os.kill(process.pid, signal.SIGKILL)
    process.wait(timeout=TIMEOUT_S)
    time.sleep(2.0)
    assert group_members(process.pid) == []


def test_serve_pool_starts_no_thread():
    from repro.serve.pool import ServePool

    async def scenario():
        loop = asyncio.get_running_loop()
        done = loop.create_future()
        threads = threading.active_count()
        pool = ServePool(
            1, loop, lambda job_id, outcome: done.set_result((job_id, outcome))
        )
        (worker,) = pool._jobs
        try:
            assert threading.active_count() == threads
            pool.dispatch("j1", {"job": "j1", "stack": "no-such-stack"})
            return await asyncio.wait_for(done, TIMEOUT_S)
        finally:
            pool.shutdown()
            assert pool.alive() == 0
            with pytest.raises(ChildProcessError):  # reaped
                os.waitpid(worker.pid, os.WNOHANG)

    job_id, (kind, payload) = asyncio.run(scenario())
    assert (job_id, kind, payload["bytes"]) == ("j1", "ok", None)
    assert "unknown stack 'no-such-stack'" in payload["error"]
