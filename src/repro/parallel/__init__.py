"""Deterministic parallel obligation checking and certificate caching.

The verification engine's three hot fan-out points — per-argument-vector
simulation checks, per-client soundness checks, and scheduler-tree
exploration — are embarrassingly parallel: every task is a pure function
of immutable inputs (interfaces, players, bounds) whose only outputs are
obligations, logs and counters.  This package provides:

* :mod:`repro.parallel.pool` — fork-based worker pools with deterministic
  result ordering and cross-process observability aggregation
  (:func:`parallel_map`, :func:`get_jobs`);
* :mod:`repro.parallel.partition` — deterministic work partitioning;
* :mod:`repro.parallel.canonical` — content fingerprints of engine
  inputs (code objects, interfaces, relations, bounds);
* :mod:`repro.parallel.cache` — the content-addressed on-disk
  certificate cache keyed by those fingerprints, the engine's analogue
  of CompCertX separate compilation: a module whose inputs have not
  changed is not re-verified.

**Determinism contract.**  With observability disabled, a parallel or
cache-warm run produces byte-identical ``Certificate.to_json()`` output
to a serial cold run: obligations are merged in serial plan order,
counterexample budgets are enforced globally at merge time, and cached
certificates are stored provenance-free.  With observability enabled,
provenance additionally records ``workers`` and ``cache`` fields and
wall times, which legitimately differ run to run.
"""

from ..envflags import cpu_budget
from .cache import (
    ENGINE_VERSION,
    cache_dir,
    cache_enabled,
    cached_certificate,
    clear_cache,
)
from .canonical import canonical_fingerprint
from .partition import chunk_evenly
from .pool import get_jobs, in_worker, parallel_map
from .workers import fork_batch_map

__all__ = [
    "ENGINE_VERSION",
    "cache_dir",
    "cache_enabled",
    "cached_certificate",
    "canonical_fingerprint",
    "chunk_evenly",
    "clear_cache",
    "cpu_budget",
    "fork_batch_map",
    "get_jobs",
    "in_worker",
    "parallel_map",
]
