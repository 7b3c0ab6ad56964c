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

The long-lived variant of this design — workers forked once and kept
alive, fed *picklable* job descriptors through shared queues — lives in
:class:`PersistentPool` below and powers the ``repro.serve`` daemon;
engine fan-outs keep the snapshot-fork transport because their task
closures cannot cross a pickle boundary.
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

    t_setup = time.perf_counter()
    readers: List[int] = []
    pids: List[int] = []
    for _ in range(workers):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            # --- child ---------------------------------------------------
            status = 1
            try:
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
                    # An unpicklable *result* poisons the whole blob;
                    # retry item by item so only the offending task is
                    # reported opaque.
                    salvaged = []
                    for index, outcome in outcomes:
                        try:
                            pickle.dumps(outcome)
                            salvaged.append((index, outcome))
                        except Exception:
                            salvaged.append(
                                (index, ("err-opaque",
                                         "task result does not pickle"))
                            )
                    _write_frame(write_fd, salvaged)
                os.close(write_fd)
                status = 0
            except BaseException:  # pragma: no cover - child never raises out
                status = 1
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(status)
        # --- parent -------------------------------------------------------
        os.close(write_fd)
        readers.append(read_fd)
        pids.append(pid)
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


# ---------------------------------------------------------------------------
# The long-lived pre-forked pool (picklable job descriptors)
# ---------------------------------------------------------------------------

#: Queue sentinel asking a worker to exit its loop.
_SHUTDOWN = ("__shutdown__",)


class PersistentPool:
    """Long-lived pre-forked workers fed through shared stealing queues.

    The transport the snapshot engine cannot offer: workers are forked
    **once**, stay resident, and pull *chunks* of picklable job
    descriptors from one shared inbound queue — any idle worker steals
    the next chunk, so there is no parent-side assignment.  Results ship
    back batched (one message per chunk) on a shared outbound queue.

    The executor function is fixed at construction (workers resolve it
    at fork time), so descriptors stay plain data — this is what lets
    ``repro.serve`` keep verification jobs off the fork-per-request
    path entirely.  Messages on the outbound queue:

    * ``("start", worker_id, tag)`` — a worker picked up ``tag``;
    * ``("done", worker_id, [(tag, outcome), ...])`` — one finished
      chunk, outcomes in chunk order (``("ok", value)`` or
      ``("err", exception)`` / ``("err-opaque", message)``);
    * ``("exit", worker_id)`` — the worker left its loop (drain).
    """

    def __init__(
        self,
        executor: Callable[[Any], Any],
        workers: int,
        initializer: Optional[Callable[[int], None]] = None,
    ):
        self._ctx = multiprocessing.get_context("fork")
        self.workers = max(1, int(workers))
        self._executor = executor
        self._initializer = initializer
        self._inbound: multiprocessing.SimpleQueue = self._ctx.SimpleQueue()
        self.outbound: multiprocessing.SimpleQueue = self._ctx.SimpleQueue()
        self._processes: List[Any] = []
        self._closed = False
        for worker_id in range(self.workers):
            process = self._ctx.Process(
                target=self._worker_loop,
                args=(worker_id,),
                daemon=True,
                name=f"repro-serve-worker-{worker_id}",
            )
            process.start()
            self._processes.append(process)

    # -- worker side --------------------------------------------------------

    def _worker_loop(self, worker_id: int) -> None:
        from . import pool as engine_pool

        # A pool worker must not fork grandchildren through parallel_map:
        # job-level parallelism across workers is the scaling axis here.
        engine_pool._IN_WORKER = True
        if self._initializer is not None:
            self._initializer(worker_id)
        while True:
            chunk = self._inbound.get()
            if chunk == _SHUTDOWN:
                self.outbound.put(("exit", worker_id))
                return
            results: List[Tuple[Any, Tuple[str, Any]]] = []
            for tag, descriptor in chunk:
                self.outbound.put(("start", worker_id, tag))
                try:
                    outcome: Tuple[str, Any] = ("ok", self._executor(descriptor))
                except BaseException as error:  # noqa: BLE001
                    outcome = _ship_outcome(error)
                try:
                    pickle.dumps(outcome)
                except Exception:
                    outcome = ("err-opaque", "job result does not pickle")
                results.append((tag, outcome))
            self.outbound.put(("done", worker_id, results))

    # -- parent side --------------------------------------------------------

    def submit_chunk(self, chunk: Sequence[Tuple[Any, Any]]) -> None:
        """Enqueue one ``[(tag, descriptor), ...]`` chunk for stealing."""
        if self._closed:
            raise RuntimeError("pool is closed")
        self._inbound.put(list(chunk))

    def submit(self, tag: Any, descriptor: Any) -> None:
        self.submit_chunk([(tag, descriptor)])

    def alive(self) -> List[bool]:
        return [process.is_alive() for process in self._processes]

    def shutdown(self, timeout_s: float = 10.0) -> None:
        """Drain: stop the loops, join the workers, close the queues."""
        if self._closed:
            return
        self._closed = True
        for _ in self._processes:
            self._inbound.put(_SHUTDOWN)
        deadline = time.monotonic() + timeout_s
        for process in self._processes:
            process.join(max(0.1, deadline - time.monotonic()))
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(1.0)
        self._inbound.close()

    def kill(self) -> None:
        """Hard stop (worker replacement path and test teardown)."""
        self._closed = True
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        for process in self._processes:
            process.join(1.0)
        self._inbound.close()
