"""The fork-batch worker engine behind :func:`repro.parallel.parallel_map`.

PR 3's pool spun up a ``ProcessPoolExecutor`` per fan-out point and paid
one submit/result IPC round-trip per item; on the hot Fig. 5 pipeline
that overhead made ``REPRO_JOBS`` *lose* against serial (0.67×/0.59× on
the reference container).  This module replaces the executor with a
minimal fork engine shaped around how the engine actually fans out:

* **snapshot forks** — workers are raw ``os.fork`` children created at
  the moment the batch's task closures exist, so unpicklable items
  (interpreters, generators, lambdas) keep reaching workers by memory
  inheritance, exactly as before.  No executor threads, no job queues,
  no per-item submit machinery.
* **chunked work stealing** — a single shared cursor (one integer in
  anonymous shared memory, advanced under a lock) hands out contiguous
  index chunks; an idle worker steals the next chunk the moment it
  finishes its own, so uneven task costs balance without any parent-side
  scheduling.
* **batched result shipping** — each worker pickles *all* of its
  ``(index, outcome)`` pairs into one blob and writes it to its pipe in
  a single stream at exit; the parent reads the pipes to EOF, merges by
  index, and replays observability payloads in serial plan order.

The serve daemon's workers are the long-lived variant
(:class:`ResidentWorker`): forked once, each with its own job and result
pipe, they run picklable job descriptors one at a time and answer each
with one frame in the same codec, until their job pipe closes.  Both
kinds are forked by one guard (:func:`_fork_child`), and a dead worker
of either kind is described by :func:`_describe_exit`.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import struct
import sys
import time
from typing import Any, Callable, List, Optional, Sequence, Tuple

#: One length-prefixed frame: ``<8-byte big-endian size><pickled payload>``.
_FRAME_HEAD = struct.Struct(">Q")


def _write_frame(fd: int, payload: Any) -> None:
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    data = _FRAME_HEAD.pack(len(blob)) + blob
    view = memoryview(data)
    while view:
        written = os.write(fd, view)
        view = view[written:]


def _read_exact(fd: int, size: int) -> Optional[bytes]:
    chunks: List[bytes] = []
    remaining = size
    while remaining:
        chunk = os.read(fd, min(remaining, 1 << 20))
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _read_frame(fd: int) -> Optional[Any]:
    head = _read_exact(fd, _FRAME_HEAD.size)
    if head is None:
        return None
    blob = _read_exact(fd, _FRAME_HEAD.unpack(head)[0])
    if blob is None:
        return None
    return pickle.loads(blob)


def _ship_outcome(error: BaseException) -> Tuple[str, Any]:
    """An exception as a shippable outcome, degrading when unpicklable."""
    try:
        pickle.dumps(error)
        return ("err", error)
    except Exception:
        return (
            "err-opaque",
            f"{type(error).__name__}: {error}",
        )


def steal_chunk_size(n_items: int, workers: int) -> int:
    """The work-stealing grain for a batch.

    Small enough that an unlucky worker never sits on a long tail
    (four steals per worker on an even batch), large enough that the
    shared-cursor lock is off the per-item path.
    """
    return max(1, n_items // (workers * 4))


def fork_batch_map(
    run_index: Callable[[int], Any],
    n_items: int,
    workers: int,
    on_worker_start: Optional[Callable[[], None]] = None,
    stats: Optional[dict] = None,
) -> List[Tuple[str, Any]]:
    """Run ``run_index`` over ``range(n_items)`` across forked workers.

    Returns the per-index outcomes **in index order**: ``("ok", value)``
    or ``("err", exception)`` / ``("err-opaque", message)``.  The caller
    decides error semantics (the engine raises the lowest failing
    index, matching a serial loop).

    ``on_worker_start`` runs once inside each child before any task
    (the pool uses it to mark ``in_worker`` so nested fan-outs degrade
    to serial).
    """
    workers = max(1, min(workers, n_items))
    chunk = steal_chunk_size(n_items, workers)
    # The stealing cursor: next unclaimed index, in shared memory.  The
    # multiprocessing.Value lock serializes chunk claims across workers.
    cursor = multiprocessing.get_context("fork").Value("l", 0)

    def work(read_fd: int, write_fd: int) -> None:
        os.close(read_fd)
        if on_worker_start is not None:
            on_worker_start()
        outcomes: List[Tuple[int, Tuple[str, Any]]] = []
        while True:
            with cursor.get_lock():
                start = cursor.value
                cursor.value = start + chunk
            if start >= n_items:
                break
            for index in range(start, min(start + chunk, n_items)):
                try:
                    outcomes.append((index, ("ok", run_index(index))))
                except BaseException as error:  # noqa: BLE001
                    outcomes.append((index, _ship_outcome(error)))
        try:
            _write_frame(write_fd, outcomes)
        except Exception:
            # An unpicklable *result* poisons the whole blob; retry item
            # by item so only the offending task is reported opaque.
            salvaged = []
            for index, outcome in outcomes:
                try:
                    pickle.dumps(outcome)
                    salvaged.append((index, outcome))
                except Exception:
                    salvaged.append(
                        (index, ("err-opaque", "task result does not pickle"))
                    )
            _write_frame(write_fd, salvaged)
        os.close(write_fd)

    t_setup = time.perf_counter()
    readers: List[int] = []
    pids: List[int] = []
    for _ in range(workers):
        read_fd, write_fd = os.pipe()
        pids.append(_fork_child(work, read_fd, write_fd))
        os.close(write_fd)
        readers.append(read_fd)
    if stats is not None:
        stats["setup_s"] = time.perf_counter() - t_setup
        stats["workers"] = workers
        stats["chunk"] = chunk

    merged: dict[int, Tuple[str, Any]] = {}
    broken = False
    for read_fd in readers:
        try:
            frame = _read_frame(read_fd)
        finally:
            os.close(read_fd)
        if frame is None:
            broken = True
            continue
        for index, outcome in frame:
            merged[index] = outcome
    deaths: List[str] = []
    for pid in pids:
        _, wait_status = os.waitpid(pid, 0)
        if wait_status != 0:
            broken = True
            deaths.append(_describe_exit(wait_status))
    if broken and len(merged) < n_items:
        missing = sorted(set(range(n_items)) - set(merged))
        raise RuntimeError(
            f"fork-batch worker died before shipping results "
            f"(missing task indices {missing[:5]}{'…' if len(missing) > 5 else ''}; "
            f"{', '.join(deaths) or 'no worker exited non-zero'})"
        )
    return [merged[index] for index in range(n_items)]


def _describe_exit(wait_status: int) -> str:
    """How a worker ended, from its ``waitpid`` status."""
    if os.WIFSIGNALED(wait_status):
        signum = os.WTERMSIG(wait_status)
        try:
            name = signal.Signals(signum).name
        except ValueError:
            name = f"signal {signum}"
        return f"worker killed by {name}"
    return f"worker exit status {os.WEXITSTATUS(wait_status)}"


def _fork_child(body: Callable[..., None], *args: Any) -> int:
    """Fork a worker that runs ``body(*args)`` and exits, with status 0
    once it returns and 1 if it raises; returns the worker's pid.  The
    child never returns into its parent's code."""
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            body(*args)
            status = 0
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(status)
    return pid


class ResidentWorker:
    """A long-lived forked worker that applies ``run`` to each job sent.

    Each job frame written by :meth:`send` is answered by one outcome
    frame, read by :meth:`receive` once :attr:`result_fd` is readable.
    The child closes ``inherited`` (the parent's ends of earlier
    workers' pipes), so the parent is the only writer of its job pipe:
    :meth:`close`, or the parent's death, ends the worker.
    """

    def __init__(self, run: Callable[[Any], Any], inherited: Sequence[int] = ()):
        job_read, self.job_fd = os.pipe()
        self.result_fd, result_write = os.pipe()
        self.pid = _fork_child(
            _serve_jobs, run, job_read, result_write,
            (*inherited, self.job_fd, self.result_fd),
        )
        os.close(job_read)
        os.close(result_write)
        #: How the worker ended, once :meth:`receive` met its death.
        self.death: Optional[str] = None

    def send(self, job: Any) -> None:
        """Hand the worker one job."""
        try:
            _write_frame(self.job_fd, job)
        except BrokenPipeError:
            pass  # it just died: receive() reports how

    def receive(self) -> Tuple[str, Any]:
        """The outcome of the job in hand.  EOF means the worker is
        gone: it is reaped, :attr:`death` says how it ended, and the
        outcome is ``("err-opaque", death)``."""
        outcome = _read_frame(self.result_fd)
        if outcome is None:
            _pid, status = os.waitpid(self.pid, 0)
            self.death = f"{_describe_exit(status)} (pid {self.pid})"
            outcome = ("err-opaque", self.death)
        return outcome

    def close(self) -> None:
        """Close both pipes: the worker leaves its loop after the job in
        hand, if any, and exits."""
        os.close(self.job_fd)
        os.close(self.result_fd)

    def join(self) -> None:
        """Reap the worker once it has exited."""
        os.waitpid(self.pid, 0)


def _serve_jobs(
    run: Callable[[Any], Any], job_read: int, result_write: int,
    inherited: Sequence[int],
) -> None:
    """A resident worker's loop: one outcome frame per job frame."""
    for fd in inherited:
        os.close(fd)
    # A signal to the whole process group (a terminal's Ctrl-C, a service
    # stop) reaches the worker too: the parent drains on it, and the job
    # in hand must still finish.
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, signal.SIG_IGN)
    from .pool import _worker_init

    _worker_init()
    while True:
        job = _read_frame(job_read)
        if job is None:
            return
        try:
            outcome: Tuple[str, Any] = ("ok", run(job))
        except BaseException as error:  # noqa: BLE001
            outcome = _ship_outcome(error)
        try:
            _write_frame(result_write, outcome)
        except OSError:
            return  # the parent is gone
        except Exception:
            _write_frame(result_write, ("err-opaque", "job result does not pickle"))
