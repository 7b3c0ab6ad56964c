"""Fork-based worker pools with deterministic merge order.

The engine's fan-out points all follow the same shape: a list of
independent tasks whose inputs are immutable (interfaces, players,
bounds) and whose outputs are plain data (obligations, logs, counters).
:func:`parallel_map` runs such a task list across worker processes and
returns results **in task order**, so callers merge them exactly as a
serial loop would have produced them.

Two implementation constraints drive the design:

* Task closures capture interpreters, generators and lambdas that do not
  pickle.  Workers are therefore snapshot forks
  (:func:`repro.parallel.workers.fork_batch_map`): the task function and
  items are published in a module-level global immediately before the
  batch forks, children inherit them through fork memory, and only the
  (picklable) results cross back — batched, one blob per worker, with a
  shared work-stealing cursor handing out index chunks (the PR 9
  replacement for the executor-per-batch model, whose per-item IPC and
  spin-up made ``REPRO_JOBS`` lose against serial).
* Observability must aggregate across processes.  Every ambient sink
  (:mod:`repro.obs.blocks`: metrics, spans, coverage, redundancy and
  the tally scopes) is marked before a task runs; the worker ships the
  deltas since those marks back with the result as one record list,
  and the parent replays the lists in task order.

Worker processes run with ``in_worker()`` true, which forces
:func:`get_jobs` to 1: an outer fan-out takes the workers, and the
fan-out points inside its tasks run serially instead of forking
grandchildren.  A one-item batch runs inline, so the workers go to the
fan-out inside it.  The worker count is the pinned engine
configuration's (:mod:`repro.envflags`): ``REPRO_JOBS`` is a cap,
clamped to the CPUs, and ``pinned(jobs=N)`` binds, so the byte-identity
suites cross real process boundaries on any host.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..envflags import engine_config
from ..obs.blocks import absorb_records, sink_marks, sink_records
from ..obs.profile import PROFILER, profile_enabled
from .workers import fork_batch_map

#: Set in worker processes by the pool initializer (inherited state plus
#: an explicit flag).  Guards against nested pools.
_IN_WORKER = False

#: The active task context: ``(fn, items)``.  Set in the parent
#: immediately before the pool forks, cleared after the batch completes.
#: Workers read it through fork inheritance; nothing here is pickled.
_TASK: Optional[Tuple[Callable[[Any], Any], Sequence[Any]]] = None


def in_worker() -> bool:
    """True inside a pool worker process."""
    return _IN_WORKER


def get_jobs() -> int:
    """The worker count for a fan-out point: 1 inside a pool worker (no
    nested pools), else the pinned configuration's ``jobs``."""
    if _IN_WORKER:
        return 1
    return engine_config().jobs


def _worker_init() -> None:
    global _IN_WORKER
    _IN_WORKER = True


def _run_task(index: int) -> Tuple[Any, list, Optional[Tuple[int, float, float]]]:
    """Run one task in a worker: its result, the sink records it
    produced, and (while profiling) its ``(pid, start_s, end_s)``.

    ``perf_counter`` is CLOCK_MONOTONIC, shared with the parent across
    the fork, so the timestamps compare directly with the parent's
    submit/receive times.
    """
    fn, items = _TASK  # type: ignore[misc]
    marks = sink_marks()
    start_s = time.perf_counter()
    result = fn(items[index])
    end_s = time.perf_counter()
    timing = (os.getpid(), start_s, end_s) if profile_enabled() else None
    return result, sink_records(marks), timing


def parallel_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
) -> List[Any]:
    """Run ``fn`` over ``items`` and return results in item order.

    With one job (or one item, or inside a worker) this is a plain
    serial loop — the caller's merge logic is identical either way.
    Items need not be picklable (they reach workers via fork
    inheritance); results must be.

    If a task raises, the exception of the *lowest-indexed* failing task
    propagates, matching the serial loop; observability output of tasks
    after the failing index is discarded, since a serial run would never
    have executed them.
    """
    global _TASK
    items = list(items)
    n = get_jobs()
    if n <= 1 or len(items) <= 1 or _IN_WORKER or _TASK is not None:
        return [fn(item) for item in items]
    if not hasattr(os, "fork"):  # pragma: no cover - non-fork platforms
        return [fn(item) for item in items]

    prof = profile_enabled()
    _TASK = (fn, items)
    stats: Dict[str, Any] = {}
    submit_s = time.perf_counter()
    try:
        outcomes = fork_batch_map(
            _run_task,
            len(items),
            n,
            on_worker_start=_worker_init,
            stats=stats,
        )
    finally:
        _TASK = None
    # Results ship batched, one blob per worker: every outcome of a
    # worker "arrives" when its pipe drains, so per-task receive times
    # collapse to the batch merge point.
    received_s = time.perf_counter()

    if prof:
        PROFILER.record_pool_batch(
            {
                "items": len(items),
                "jobs": stats.get("workers", min(n, len(items))),
                "setup_s": stats.get("setup_s", 0.0),
            }
        )
    results: List[Any] = []
    for index, (kind, value) in enumerate(outcomes):
        if kind == "err":
            raise value
        if kind == "err-opaque":
            raise RuntimeError(f"worker task {index} failed: {value}")
        result, records, timing = value
        absorb_records(records)
        if prof and timing is not None:
            pid, start_s, end_s = timing
            PROFILER.record_pool_task(
                {
                    "task": index,
                    "pid": pid,
                    "submit_s": submit_s,
                    "start_s": start_s,
                    "end_s": end_s,
                    "received_s": received_s,
                    "queue_s": max(0.0, start_s - submit_s),
                    "exec_s": max(0.0, end_s - start_s),
                    "ship_s": max(0.0, received_s - end_s),
                }
            )
        results.append(result)
    return results
