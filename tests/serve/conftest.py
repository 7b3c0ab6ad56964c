"""Fixtures for the ``repro.serve`` contract suite.

``app`` builds an in-process :class:`ServeApp` on a private event loop
with the serial fallback pool; ``stub_executor`` replaces the worker
executor with a controllable fake so queueing, dedup, and drain
contracts can be tested without real (multi-hundred-ms) verifications.
The end-to-end suite (``test_e2e.py``) boots a real daemon subprocess
instead and uses none of this.
"""

import asyncio
import time

import pytest


@pytest.fixture()
def run_app(tmp_path):
    """Run an async scenario against a fresh in-process ServeApp.

    Usage::

        def test_x(run_app):
            async def scenario(app):
                status, doc = app.submit({...})
                ...
            run_app(scenario, queue_limit=2)
    """
    from repro.serve.app import ServeApp

    def runner(scenario, **app_kwargs):
        app_kwargs.setdefault("workers", 0)  # serial in-process pool
        app_kwargs.setdefault("spool", str(tmp_path / "spool"))

        async def main():
            loop = asyncio.get_running_loop()
            app = ServeApp(loop, **app_kwargs)
            return await scenario(app)

        return asyncio.run(main())

    return runner


@pytest.fixture()
def stub_executor(monkeypatch):
    """Swap the pool's job executor for a fast controllable fake.

    The stub honours two extra (test-only) params smuggled through the
    descriptor: jobs complete after ``stub_executor.delay_s`` seconds
    and fail when ``stub_executor.fail`` is set.  Result bytes are a
    canonical function of the descriptor, so byte-level store behaviour
    stays observable.
    """
    import json

    class Stub:
        delay_s = 0.0
        fail = False
        calls = []

        def __call__(self, descriptor):
            Stub.calls.append(descriptor["job"])
            if self.delay_s:
                time.sleep(self.delay_s)
            if self.fail:
                return {"ok": False, "bytes": None, "wall_s": self.delay_s,
                        "error": "stub failure"}
            blob = json.dumps(
                {"stack": descriptor["stack"],
                 "params": descriptor["params"]},
                sort_keys=True,
            ).encode("utf-8")
            return {"ok": True, "bytes": blob, "wall_s": self.delay_s}

    stub = Stub()
    monkeypatch.setattr("repro.serve.pool.execute_job", stub)
    return stub


async def wait_terminal(app, job_id, timeout_s=30.0):
    """Poll the job table until the job is terminal."""
    deadline = time.monotonic() + timeout_s
    job = app.table.get(job_id)
    while not job.terminal:
        if time.monotonic() > deadline:  # pragma: no cover
            raise TimeoutError(f"job {job_id} stuck in {job.state}")
        await asyncio.sleep(0.005)
    return job
