"""Counters and histograms for the checker stack.

The registry answers the quantitative questions a `Certificate` alone
cannot: how many runs the simulation checker enumerated, how many
environment contexts survived rely pruning, how often the replay cache
hit, how many scheduling rounds a game took, where per-rule wall time
went.  All operations are thread-safe; the mutation helpers
(:func:`inc`, :func:`observe`) are no-ops while
observability is disabled, mirroring :mod:`repro.obs.trace`.
"""

from __future__ import annotations

import random
import threading
from typing import Any, Dict, List, Optional

from .blocks import register_sink
from .trace import _STATE


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Histogram:
    """A distribution of observations (wall times, spin counts, ...).

    Keeps exact count/total/min/max always; raw samples are retained up
    to ``max_samples`` by **reservoir sampling** (Vitter's Algorithm R),
    so percentile estimates stay unbiased over the whole run instead of
    freezing on the first ``max_samples`` observations.  The reservoir's
    RNG is seeded from the histogram name, so a given observation
    sequence keeps identical percentiles across runs and processes.
    """

    __slots__ = ("name", "count", "total", "_min", "_max", "_samples",
                 "max_samples", "_rng", "_lock")

    def __init__(self, name: str, max_samples: int = 10_000):
        self.name = name
        self.count = 0
        self.total = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._samples: List[float] = []
        self.max_samples = max_samples
        self._rng = random.Random(name)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value
            if len(self._samples) < self.max_samples:
                self._samples.append(value)
            else:
                slot = self._rng.randrange(self.count)
                if slot < self.max_samples:
                    self._samples[slot] = value

    def percentile(self, q: float) -> Optional[float]:
        """The ``q``-quantile of the kept samples (``None`` before any)."""
        with self._lock:
            samples = sorted(self._samples)
        return _quantile(samples, q)

    def summary(self) -> Dict[str, Any]:
        with self._lock:
            if not self.count:
                return {"count": 0}
            samples = sorted(self._samples)
            out = {
                "count": self.count,
                "total": self.total,
                "min": self._min,
                "max": self._max,
                "mean": self.total / self.count,
                "samples_seen": self.count,
                "samples_kept": len(samples),
            }
            if samples:
                out["p50"] = _quantile(samples, 0.50)
                out["p95"] = _quantile(samples, 0.95)
            return out


def _quantile(ordered: List[float], q: float) -> Optional[float]:
    """The sample at rank ``min(n - 1, int(q * n))`` of a sorted list."""
    if not ordered:
        return None
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class MetricsRegistry:
    """Thread-safe name → metric store with a consistent snapshot view."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter(name)
            return metric

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = Histogram(name)
            return metric

    def reset(self) -> None:
        with self._lock:
            self._counters = {}
            self._histograms = {}

    def counter_values(self) -> Dict[str, int]:
        with self._lock:
            counters = list(self._counters.values())
        return {c.name: c.value for c in counters}

    def snapshot(self) -> Dict[str, Any]:
        """All metrics as plain data (sorted for stable reports)."""
        with self._lock:
            counters = list(self._counters.values())
            histograms = list(self._histograms.values())
        return {
            "counters": {c.name: c.value for c in sorted(counters, key=lambda m: m.name)},
            "histograms": {
                h.name: h.summary()
                for h in sorted(histograms, key=lambda m: m.name)
            },
        }


REGISTRY = MetricsRegistry()


def inc(name: str, n: int = 1) -> None:
    """Increment counter ``name`` (no-op while observability is off)."""
    if not _STATE.enabled:
        return
    REGISTRY.counter(name).inc(n)


def observe(name: str, value: float) -> None:
    """Record ``value`` into histogram ``name`` (no-op while off)."""
    if not _STATE.enabled:
        return
    REGISTRY.histogram(name).observe(value)


def snapshot() -> Dict[str, Any]:
    """The current metric values (readable whether or not enabled)."""
    return REGISTRY.snapshot()


class MetricsWindow:
    """Counter deltas over a region of work.

    Construct at the start of a check; :meth:`delta` returns how much
    each counter grew since then — the per-judgment slice of the global
    registry that goes into ``Certificate.provenance``.  Windows opened
    while observability is disabled yield an empty delta.
    """

    __slots__ = ("_start",)

    def __init__(self):
        self._start = REGISTRY.counter_values() if _STATE.enabled else None

    def delta(self) -> Dict[str, int]:
        if self._start is None:
            return {}
        current = REGISTRY.counter_values()
        return {
            name: value - self._start.get(name, 0)
            for name, value in sorted(current.items())
            if value - self._start.get(name, 0)
        }


def _absorb_deltas(deltas: Dict[str, int]) -> None:
    for name, delta in deltas.items():
        inc(name, delta)


register_sink(
    "metrics",
    mark=lambda: MetricsWindow() if _STATE.enabled else None,
    since=MetricsWindow.delta,
    absorb=_absorb_deltas,
)
