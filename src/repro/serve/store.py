"""The daemon's served-certificate store: sharded, content-addressed, LRU.

Layout mirrors the CLI certificate cache but adds a tenant dimension::

    <root>/<tenant>/<fp[:2]>/<fp>.json

Each tenant's directory is a :class:`repro.cas.ContentStore` of the
canonical result-document bytes produced by a worker
(:func:`repro.serve.protocol.result_bytes`), stored verbatim — a store
hit is served without re-serialization, which is what makes the
byte-identity guarantee auditable with ``cmp``.  A damaged entry reads
as a miss, so its job re-verifies instead of serving it.

Reads are isolated by tenant: a fingerprint is only a hit for the
tenant that owns the entry (in-flight *work* is shared across tenants;
the stored *artifact* is not).  The byte budget is shared: one
tenant's puts may evict another tenant's stalest entries, since
per-tenant budgets would let a client that invents tenant names grow
the store without bound.

Eviction is LRU by file mtime: every hit touches the entry, and when
the store exceeds its byte budget the stalest entries go first.  All
mutation happens on the daemon's single event-loop thread, so there is
no store-level locking; workers never write here.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Optional, Tuple

from ..cas import ContentStore, check_name

#: Default eviction budget: plenty for thousands of result documents.
DEFAULT_MAX_BYTES = 64 * 1024 * 1024

_SUFFIX = ".json"


class CertificateStore:
    """Sharded per-tenant store of served result documents."""

    def __init__(self, root: str, max_bytes: int = DEFAULT_MAX_BYTES):
        self.root = os.path.abspath(root)
        self.max_bytes = max_bytes
        os.makedirs(self.root, exist_ok=True)
        # Walks every tenant: the byte budget is shared.
        self._all = ContentStore(self.root, _SUFFIX)
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0

    def _entry(self, tenant: str, fingerprint: str) -> Tuple[ContentStore, str]:
        """The tenant's store and the entry's key (both names checked)."""
        root = os.path.join(self.root, check_name(tenant, "tenant"))
        return ContentStore(root, _SUFFIX), check_name(fingerprint, "fingerprint")

    def _path(self, tenant: str, fingerprint: str) -> str:
        store, key = self._entry(tenant, fingerprint)
        return store.path(key)

    def get(self, tenant: str, fingerprint: str) -> Optional[bytes]:
        """The stored bytes, or ``None``; a hit refreshes LRU recency."""
        store, key = self._entry(tenant, fingerprint)
        payload = store.get(key, touch=True)
        if payload is None:
            self.misses += 1
        else:
            self.hits += 1
        return payload

    def put(self, tenant: str, fingerprint: str, payload: bytes) -> Optional[str]:
        """Store ``payload``, then evict down to budget.

        Returns the entry's path, or ``None`` when the write failed
        (reported as a :class:`repro.cas.StoreWarning`).
        """
        store, key = self._entry(tenant, fingerprint)
        path = store.put(key, payload)
        if path is not None:
            self.puts += 1
            self.evictions += self._all.evict(self.max_bytes, keep=path)
        return path

    def tenants(self) -> List[str]:
        try:
            return sorted(
                name
                for name in os.listdir(self.root)
                if os.path.isdir(os.path.join(self.root, name))
            )
        except OSError:
            return []

    def stats(self) -> Dict[str, Any]:
        entries = self._all.entries()
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "entries": len(entries),
            "bytes": sum(size for _mtime, size, _path in entries),
            "max_bytes": self.max_bytes,
            "tenants": self.tenants(),
        }


class LatencyWindow:
    """A bounded reservoir of latencies with percentile readout."""

    def __init__(self, limit: int = 512):
        self.limit = limit
        self._samples: List[float] = []
        self.count = 0

    def add(self, seconds: float) -> None:
        self.count += 1
        self._samples.append(seconds)
        if len(self._samples) > self.limit:
            del self._samples[: len(self._samples) - self.limit]

    def percentile(self, q: float) -> Optional[float]:
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        index = min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))
        return ordered[index]

    def summary(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "p50_ms": _ms(self.percentile(0.50)),
            "p90_ms": _ms(self.percentile(0.90)),
            "max_ms": _ms(max(self._samples) if self._samples else None),
        }


def _ms(seconds: Optional[float]) -> Optional[float]:
    return None if seconds is None else round(seconds * 1000.0, 3)


class ServeMetrics:
    """Daemon-wide counters surfaced by ``GET /metrics``."""

    def __init__(self) -> None:
        self.started_at = time.time()
        self.jobs_submitted = 0
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.jobs_rejected = 0
        self.jobs_deduped = 0
        self.warm = LatencyWindow()
        self.cold = LatencyWindow()
        # Obligation-granular cache reuse across completed jobs
        # (populated only when the workers run with REPRO_CACHE_DIR set).
        self.obligations_reused = 0
        self.obligations_rechecked = 0
        self.slice_misses = 0

    def to_json(self, store: CertificateStore, extra: Dict[str, Any]) -> Dict[str, Any]:
        from .protocol import METRICS_SCHEMA

        return {
            "schema": METRICS_SCHEMA,
            "uptime_s": round(time.time() - self.started_at, 3),
            "jobs": {
                "submitted": self.jobs_submitted,
                "completed": self.jobs_completed,
                "failed": self.jobs_failed,
                "rejected": self.jobs_rejected,
                "deduped": self.jobs_deduped,
            },
            "cache": store.stats(),
            "incremental": {
                "reused": self.obligations_reused,
                "rechecked": self.obligations_rechecked,
                "slice_misses": self.slice_misses,
            },
            "latency": {
                "warm": self.warm.summary(),
                "cold": self.cold.summary(),
            },
            **extra,
        }
