"""Hierarchical tracing spans with Chrome ``trace_event`` export.

Every judgment this reproduction checks is discharged by bounded
exploration; this module makes that exploration *observable*.  A
:func:`span` marks one region of checker work (a calculus rule, a
simulation check, a behaviour enumeration); spans nest per thread and
are gathered by a process-wide thread-safe :class:`TraceCollector`.
Collected spans export to the Chrome ``trace_event`` JSON format
(:func:`chrome_trace` / :func:`write_chrome_trace`) so a verification
run can be opened in ``chrome://tracing`` or Perfetto.

Observability is **off by default** and the disabled path is a no-op
fast path: :func:`span` returns a shared stateless context manager and
records nothing, so instrumented checkers pay only a flag test.
Enable with :func:`enable`/:func:`disable` or the :func:`observing`
context manager.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Tuple

from .blocks import register_sink


class _ObsState:
    """The module-wide enable flag (a class so tests can monkeypatch)."""

    __slots__ = ("enabled",)

    def __init__(self):
        self.enabled = False


_STATE = _ObsState()


def obs_enabled() -> bool:
    """Whether tracing/metrics collection is currently on."""
    return _STATE.enabled


class SpanRecord:
    """One completed span: timing, identity, nesting, user args."""

    __slots__ = (
        "sid",
        "parent",
        "depth",
        "name",
        "category",
        "args",
        "start_us",
        "dur_us",
        "thread_index",
        "thread_name",
        "error",
    )

    def __init__(
        self,
        sid: int,
        parent: Optional[int],
        depth: int,
        name: str,
        category: str,
        args: Dict[str, Any],
        start_us: float,
        dur_us: float,
        thread_index: int,
        thread_name: str,
        error: Optional[str],
    ):
        self.sid = sid
        self.parent = parent
        self.depth = depth
        self.name = name
        self.category = category
        self.args = args
        self.start_us = start_us
        self.dur_us = dur_us
        self.thread_index = thread_index
        self.thread_name = thread_name
        self.error = error

    def __repr__(self):
        return (
            f"SpanRecord({self.name!r}, {self.dur_us:.1f}us, "
            f"depth={self.depth}, tid={self.thread_index})"
        )


class TraceCollector:
    """Thread-safe in-memory span sink.

    Completed spans land in one shared list under a lock; the *open*
    span stack is thread-local, so concurrent threads nest their own
    spans independently (each record carries a small per-thread index
    used as the Chrome ``tid``).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._spans: List[SpanRecord] = []
        self._next_sid = 0
        self._threads: Dict[int, Tuple[int, str]] = {}
        self._epoch_ns = time.perf_counter_ns()

    def reset(self) -> None:
        with self._lock:
            self._spans = []
            self._next_sid = 0
            self._threads = {}
            self._epoch_ns = time.perf_counter_ns()

    # -- internals used by Span -------------------------------------------

    def _stack(self) -> List["Span"]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _alloc_sid(self) -> int:
        with self._lock:
            sid = self._next_sid
            self._next_sid += 1
            return sid

    def _thread_index(self) -> int:
        ident = threading.get_ident()
        with self._lock:
            entry = self._threads.get(ident)
            if entry is None:
                entry = (len(self._threads), threading.current_thread().name)
                self._threads[ident] = entry
            return entry[0]

    def _record(self, record: SpanRecord) -> None:
        with self._lock:
            self._spans.append(record)

    def adopt(
        self,
        records: List[SpanRecord],
        parent_sid: Optional[int] = None,
        parent_depth: int = -1,
    ) -> None:
        """Splice spans recorded in a worker process into this collector.

        Worker span ids were allocated by the worker's (forked) collector
        and would collide with the parent's; each adopted record gets a
        fresh sid and parent links are remapped within the batch.  Links
        to spans outside the batch (the worker's enclosing spans were
        inherited parent state, not part of this trace) are re-attached
        to ``parent_sid`` — the pool passes the span that was open at
        the fan-out point, so adopted subtrees keep their rule →
        obligation nesting; with no ``parent_sid`` they become roots.
        """
        with self._lock:
            mapping = {}
            for record in records:
                mapping[record.sid] = self._next_sid
                self._next_sid += 1
            offset = parent_depth + 1
            for record in records:
                record.sid = mapping[record.sid]
                remapped = mapping.get(record.parent)
                if remapped is None:
                    record.parent = parent_sid
                    record.depth = offset
                else:
                    record.parent = remapped
                    record.depth += offset
                self._spans.append(record)

    def current_span(self) -> Optional["Span"]:
        """The innermost span open on the calling thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    # -- read side ---------------------------------------------------------

    @property
    def spans(self) -> List[SpanRecord]:
        with self._lock:
            return list(self._spans)

    def threads(self) -> Dict[int, str]:
        """Thread index → thread name for every thread that traced."""
        with self._lock:
            return {index: name for index, name in self._threads.values()}

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


_COLLECTOR = TraceCollector()


def collector() -> TraceCollector:
    """The process-wide collector spans report to."""
    return _COLLECTOR


def _adopt_worker_spans(records: List[SpanRecord]) -> None:
    """Re-attach worker spans under the span open at the fan-out point,
    so parallel traces keep serial nesting."""
    open_span = _COLLECTOR.current_span()
    _COLLECTOR.adopt(
        records,
        parent_sid=open_span.sid if open_span is not None else None,
        parent_depth=open_span.depth if open_span is not None else -1,
    )


register_sink(
    "spans",
    mark=lambda: len(_COLLECTOR) if _STATE.enabled else None,
    since=lambda mark: _COLLECTOR.spans[mark:],
    absorb=_adopt_worker_spans,
)


class Span:
    """An open span; use as a context manager (returned by :func:`span`)."""

    __slots__ = (
        "name",
        "category",
        "args",
        "sid",
        "parent",
        "depth",
        "_collector",
        "_start_ns",
        "_end_ns",
    )

    def __init__(self, collector: TraceCollector, name: str, category: str,
                 args: Dict[str, Any]):
        self.name = name
        self.category = category
        self.args = args
        self._collector = collector
        self._start_ns = 0
        self._end_ns = 0
        self.sid = -1
        self.parent: Optional[int] = None
        self.depth = 0

    def __enter__(self) -> "Span":
        stack = self._collector._stack()
        self.parent = stack[-1].sid if stack else None
        self.depth = len(stack)
        self.sid = self._collector._alloc_sid()
        stack.append(self)
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._end_ns = time.perf_counter_ns()
        stack = self._collector._stack()
        if self in stack:  # tolerate mispaired exits
            while stack and stack[-1] is not self:
                stack.pop()
            stack.pop()
        self._collector._record(
            SpanRecord(
                sid=self.sid,
                parent=self.parent,
                depth=self.depth,
                name=self.name,
                category=self.category,
                args=self.args,
                start_us=(self._start_ns - self._collector._epoch_ns) / 1000.0,
                dur_us=(self._end_ns - self._start_ns) / 1000.0,
                thread_index=self._collector._thread_index(),
                thread_name=threading.current_thread().name,
                error=exc_type.__name__ if exc_type is not None else None,
            )
        )
        return False

    @property
    def duration(self) -> float:
        """Elapsed seconds (0.0 until the span has closed)."""
        if not self._start_ns:
            return 0.0
        end = self._end_ns or time.perf_counter_ns()
        return (end - self._start_ns) / 1e9


class _NoopSpan:
    """The shared disabled-path span: stateless, reentrant, records nothing."""

    __slots__ = ()
    duration = 0.0
    sid = -1
    parent = None
    depth = 0

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


def span(name: str, category: str = "repro", **args: Any):
    """Open a span named ``name``; a no-op unless observability is enabled.

    ``span("vcomp", layer="L_lock")`` — keyword arguments become the
    Chrome trace event's ``args`` payload.
    """
    if not _STATE.enabled:
        return NOOP_SPAN
    return Span(_COLLECTOR, name, category, args)


def enable(reset: bool = True) -> TraceCollector:
    """Turn collection on (optionally clearing prior spans and metrics)."""
    if reset:
        _COLLECTOR.reset()
        from .coverage import COVERAGE
        from .metrics import REGISTRY

        REGISTRY.reset()
        COVERAGE.reset()
    _STATE.enabled = True
    return _COLLECTOR


def disable() -> None:
    """Turn collection off.  Collected data stays readable/exportable."""
    _STATE.enabled = False


@contextmanager
def observing(reset: bool = True):
    """``with observing() as collector:`` — enable for the block's duration."""
    was_enabled = _STATE.enabled
    yield_value = enable(reset=reset)
    try:
        yield yield_value
    finally:
        _STATE.enabled = was_enabled


# -- Chrome trace_event export ----------------------------------------------


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


def chrome_trace(trace_collector: Optional[TraceCollector] = None) -> Dict[str, Any]:
    """The collected spans as a Chrome ``trace_event`` JSON object.

    Spans become ``"ph": "X"`` (complete) events with microsecond
    timestamps; one ``"ph": "M"`` metadata event names each thread.
    The result loads directly in ``chrome://tracing`` / Perfetto.
    """
    trace_collector = trace_collector or _COLLECTOR
    pid = os.getpid()
    events: List[Dict[str, Any]] = []
    for index, name in sorted(trace_collector.threads().items()):
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": index,
                "name": "thread_name",
                "args": {"name": name},
            }
        )
    for record in sorted(trace_collector.spans, key=lambda r: r.start_us):
        args = {str(k): _jsonable(v) for k, v in record.args.items()}
        args["sid"] = record.sid
        if record.parent is not None:
            args["parent"] = record.parent
        if record.error is not None:
            args["error"] = record.error
        events.append(
            {
                "name": record.name,
                "cat": record.category,
                "ph": "X",
                "pid": pid,
                "tid": record.thread_index,
                "ts": record.start_us,
                "dur": record.dur_us,
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: str, trace_collector: Optional[TraceCollector] = None
) -> str:
    """Serialize :func:`chrome_trace` to ``path``; returns the path."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(trace_collector), handle, indent=1)
    return path
