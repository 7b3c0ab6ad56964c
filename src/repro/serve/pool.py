"""The daemon's verification pool: resident fork workers read on the loop.

Workers are :class:`repro.parallel.workers.ResidentWorker` children with
:func:`repro.serve.protocol.execute_job` as their job function, forked
**once**, at daemon boot — no fork, import, or interpreter warm-up on
any request path.  A job goes to an idle worker, and the event loop
reads its outcome when that worker's result pipe turns readable
(``loop.add_reader``), so all job state stays on the loop thread and
the daemon runs no other thread.

EOF on a result pipe is a death, idle or busy: the worker is reaped,
the pool records how it ended, and the job it held fails through
``on_done``.  No replacement is forked, since a job that kills its
worker would kill the replacement too.
"""

from __future__ import annotations

import asyncio
import os
import signal
from typing import Any, Callable, Dict, List, Optional

from ..parallel.workers import ResidentWorker
from .protocol import execute_job


class ServePool:
    """Resident fork workers, one job each at a time."""

    def __init__(
        self,
        workers: int,
        loop: asyncio.AbstractEventLoop,
        on_done: Callable[[Any, Any], None],
    ):
        self._loop = loop
        self._on_done = on_done
        self.workers = max(1, int(workers))
        #: Each live worker and the job it runs (``None`` while idle).
        self._jobs: Dict[ResidentWorker, Optional[str]] = {}
        #: How each dead worker ended, in order of death.
        self.deaths: List[str] = []
        inherited: List[int] = []
        for _ in range(self.workers):
            worker = ResidentWorker(execute_job, inherited)
            inherited += (worker.job_fd, worker.result_fd)
            self._jobs[worker] = None
            loop.add_reader(worker.result_fd, self._receive, worker)

    @property
    def in_flight(self) -> int:
        return sum(job_id is not None for job_id in self._jobs.values())

    @property
    def free_slots(self) -> int:
        return len(self._jobs) - self.in_flight

    def alive(self) -> int:
        return len(self._jobs)

    def dispatch(self, job_id: str, descriptor: Dict[str, Any]) -> None:
        """Hand one job to an idle worker (caller checked ``free_slots``)."""
        worker = next(w for w, held in self._jobs.items() if held is None)
        self._jobs[worker] = job_id
        worker.send(descriptor)

    def _receive(self, worker: ResidentWorker) -> None:
        outcome = worker.receive()
        job_id = self._jobs[worker]
        if worker.death is None:
            self._jobs[worker] = None
        else:
            del self._jobs[worker]
            self._close(worker)
            self.deaths.append(worker.death)
        if job_id is not None:
            self._on_done(job_id, outcome)

    def _close(self, worker: ResidentWorker) -> None:
        self._loop.remove_reader(worker.result_fd)
        worker.close()

    # -- lifecycle ----------------------------------------------------------

    def shutdown(self) -> None:
        """Close every worker's pipes, so each leaves its loop, and reap it.

        A busy worker finishes its job first, then fails to ship it and
        exits; the daemon calls this once the drain has none left.
        """
        for worker in self._jobs:
            self._close(worker)
        for worker in self._jobs:
            worker.join()
        self._jobs.clear()

    def kill(self) -> None:
        """SIGKILL and reap every worker (a drain that timed out)."""
        for worker in self._jobs:
            os.kill(worker.pid, signal.SIGKILL)
        self.shutdown()


class SerialPool:
    """A no-fork fallback with the same surface (``--workers 0``; tests).

    Runs jobs inline on the loop thread via ``run_in_executor`` — one
    job at a time, still asynchronous from the HTTP handlers' point of
    view.  Useful on platforms without ``fork`` and for unit-testing
    the dispatcher without real processes.
    """

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        on_done: Callable[[Any, Any], None],
    ):
        self._loop = loop
        self._on_done = on_done
        self.workers = 1
        self.in_flight = 0
        self.deaths: List[str] = []
        self._task: Optional[asyncio.Future] = None

    @property
    def free_slots(self) -> int:
        return max(0, self.workers - self.in_flight)

    def dispatch(self, job_id: str, descriptor: Dict[str, Any]) -> None:
        self.in_flight += 1

        def run() -> Any:
            try:
                return ("ok", execute_job(descriptor))
            except BaseException as error:  # noqa: BLE001
                return ("err-opaque", f"{type(error).__name__}: {error}")

        future = self._loop.run_in_executor(None, run)
        self._task = future
        future.add_done_callback(
            lambda f: self._finish(job_id, f.result())
        )

    def _finish(self, job_id: str, outcome: Any) -> None:
        self.in_flight -= 1
        self._on_done(job_id, outcome)

    def alive(self) -> int:
        return 1

    def shutdown(self) -> None:
        return None

    def kill(self) -> None:
        return None
