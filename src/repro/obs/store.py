"""The run ledger: persistent cross-run verification analytics.

A **run ledger** is a content-addressed store of one record per
verification run (schema ``repro.obs/run/v1``), durable across
processes, machines and CI pushes, so questions like "which
certificates survived, at what cost, versus last week" have data
instead of a single hand-committed baseline JSON.

Layout (one directory, a :class:`repro.cas.ContentStore`)::

    <ledger>/<digest[:2]>/<digest>.json   # one run record per file

The ``digest`` field is the SHA-256 of the record's canonical JSON; it
names the record's file, deduplicates replayed appends and names runs
in CLI filters.  Records are written atomically, so concurrent
appenders never see each other's partial writes, and read back
digest-checked: a damaged record is reported as a
:class:`repro.cas.StoreWarning`, removed and skipped.

A run record captures what the run proved and what it cost: the digest
and canonical fingerprint of every root certificate, per-rule wall
time, obligation counts, the coverage map, redundancy ratios from
``provenance["profile"]``, cache hit/miss counts and latencies, pool
utilization, engine/ruleset versions and host metadata.

Capture is automatic: arm the ledger with :func:`ledger` (a context
manager), :func:`enable_ledger`, or ``REPRO_LEDGER=/path/to/ledger`` in
the environment (flushed via ``atexit``).  While armed, the provenance
stamping hooks in :mod:`repro.core.certificate` notify the active
:class:`LedgerRun` of every certificate; at run end the roots (the
certificates not contained in any other) are rolled into one record and
appended.  The hooks never touch the certificates themselves, so
obs-off certificate bytes stay byte-identical with the ledger enabled
(asserted by ``tests/parallel/test_ledger_parallel.py``).  Fork-pool
workers inherit the armed run but never write records; their
ledger-relevant counters ship back through the pool payload and merge
in serial plan order (the PR 3 contract).

Nothing here imports :mod:`repro.core` at module level, so the
read-side (history / trends / regress / dashboard) stays usable on
exported artifacts without the checker stack.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import platform
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..cas import ContentStore
from ..envflags import engine_config
from .blocks import ledger_fields, register_sink
from .heartbeat import stream_path as _heartbeat_stream_path
from .metrics import snapshot as _metrics_snapshot
from .profile import PROFILER, profile_enabled
from .trace import obs_enabled

#: Schema tag of one run record (one file in a ledger).
RUN_SCHEMA = "repro.obs/run/v1"

#: Environment switch: a directory path arms the ledger at import time;
#: the run record is flushed at interpreter exit.
LEDGER_ENV = "REPRO_LEDGER"

#: Optional label for env-armed runs (defaults to the first root
#: certificate's judgment).
LEDGER_OBJECT_ENV = "REPRO_LEDGER_OBJECT"


# ---------------------------------------------------------------------------
# Certificate identity: digest + canonical fingerprint
# ---------------------------------------------------------------------------

def _strip_provenance_json(cert_json: Dict[str, Any]) -> Dict[str, Any]:
    """A copy of an exported certificate tree without ``provenance``.

    Provenance holds run-dependent state (wall times, worker counts,
    cache annotations); stripping it makes the digest identical across
    obs-on/obs-off, serial/parallel and cold/warm-cache runs — the
    digest names *what was proved*, not how the run went.
    """
    out = {k: v for k, v in cert_json.items() if k != "provenance"}
    out["provenance"] = None
    out["children"] = [
        _strip_provenance_json(child) for child in cert_json.get("children") or []
    ]
    return out


def _cert_json(cert: Any) -> Dict[str, Any]:
    return cert if isinstance(cert, dict) else cert.to_json()


def certificate_digest(cert: Any) -> str:
    """SHA-256 of a certificate's provenance-free canonical JSON.

    Accepts a :class:`~repro.core.certificate.Certificate` (duck-typed
    on ``to_json``) or an already-exported ``repro.cert/v1`` dict.
    """
    stripped = _strip_provenance_json(_cert_json(cert))
    blob = json.dumps(stripped, sort_keys=True, ensure_ascii=False, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: What run records state about the checker: its versions and its
#: canonical fingerprint function.  The engine module that owns these
#: facts registers them at import (:mod:`repro.parallel.cache`, loaded
#: by ``import repro``), so the ledger imports nothing above
#: :mod:`repro.obs`.
_ENGINE: Dict[str, Any] = {}


def register_engine(**facts: Any) -> None:
    """Declare engine facts (``versions``, ``fingerprint``)."""
    _ENGINE.update(facts)


def certificate_fingerprint(cert: Any) -> str:
    """The canonical fingerprint of a certificate's provenance-free export.

    Built on the engine's canonical fingerprint
    (:func:`repro.parallel.canonical.canonical_fingerprint`), so two runs
    that proved the same judgment with the same obligations share a
    fingerprint regardless of observability state.
    """
    return _ENGINE["fingerprint"](_strip_provenance_json(_cert_json(cert)))


# ---------------------------------------------------------------------------
# The on-disk ledger
# ---------------------------------------------------------------------------

def _record_digest(record: Dict[str, Any]) -> str:
    payload = {k: v for k, v in record.items() if k != "digest"}
    blob = json.dumps(payload, sort_keys=True, ensure_ascii=False, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class RunLedger:
    """One ledger directory: one content-addressed file per run record."""

    def __init__(self, root: str):
        if os.path.isdir(os.path.join(root, "segments")):
            raise ValueError(
                f"{root!r} is a run ledger in the old segments/ layout; "
                "record into a new directory"
            )
        self.root = root
        self._records = ContentStore(root, ".json")

    def append(self, record: Dict[str, Any]) -> Optional[str]:
        """Append one run record; returns its content digest.

        The record gains ``schema`` and ``digest`` fields if missing.
        Re-appending a record already on the ledger is a no-op (content
        addressing makes replays idempotent).  Returns ``None`` when the
        record could not be written (reported as a
        :class:`repro.cas.StoreWarning`).
        """
        record = dict(record)
        record.setdefault("schema", RUN_SCHEMA)
        digest = record.get("digest") or _record_digest(record)
        record["digest"] = digest
        if self._records.get(digest) is not None:
            return digest
        payload = json.dumps(
            record, sort_keys=True, ensure_ascii=False, default=repr
        ).encode("utf-8")
        return digest if self._records.put(digest, payload) else None

    def runs(
        self,
        object: Optional[str] = None,
        rule: Optional[str] = None,
        fingerprint: Optional[str] = None,
        since: Optional[float] = None,
        last: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Run records, oldest first, deduplicated and filtered.

        ``fingerprint`` matches a prefix of any root certificate's
        ``fingerprint`` or ``digest``; ``rule`` matches runs that
        applied the named rule; ``last`` keeps the newest N after
        filtering.
        """
        records: List[Dict[str, Any]] = []
        for _mtime, _size, path in self._records.entries():
            key = os.path.basename(path)[: -len(".json")]
            payload = self._records.get(key)
            if payload is None:
                continue
            try:
                record = json.loads(payload)
            except ValueError:
                self._records.discard(key, "payload is not JSON")
                continue
            if (isinstance(record, dict) and record.get("schema") == RUN_SCHEMA
                    and record.get("digest") == key):
                records.append(record)
        records.sort(key=lambda r: (r.get("ts") or 0.0, r.get("digest") or ""))
        if object is not None:
            records = [r for r in records if r.get("object") == object]
        if rule is not None:
            records = [r for r in records if rule in (r.get("rules") or {})]
        if fingerprint is not None:
            records = [r for r in records if _matches_fingerprint(r, fingerprint)]
        if since is not None:
            records = [r for r in records if (r.get("ts") or 0.0) >= since]
        if last is not None and last >= 0:
            records = records[-last:]
        return records

    def objects(self) -> List[str]:
        """Every distinct run ``object`` label, sorted."""
        return sorted({r.get("object") or "?" for r in self.runs()})

    # -- retention ----------------------------------------------------------

    def compact(
        self,
        keep_last: Optional[int] = None,
        max_age_s: Optional[float] = None,
        now: Optional[float] = None,
    ) -> int:
        """Apply retention, deleting the records that do not survive.

        Retention: keep the newest ``keep_last`` runs per object and
        drop runs older than ``max_age_s``.  Only the dropped records'
        files are removed, so this is safe beside concurrent appends.
        Returns the number of surviving records.
        """
        now = time.time() if now is None else now
        runs = self.runs()
        survivors = runs
        if max_age_s is not None:
            survivors = [
                r for r in survivors if now - (r.get("ts") or 0.0) <= max_age_s
            ]
        if keep_last is not None:
            by_object: Dict[str, List[Dict[str, Any]]] = {}
            for record in survivors:
                by_object.setdefault(record.get("object") or "?", []).append(record)
            survivors = [
                record for records in by_object.values()
                for record in records[-keep_last:]
            ]
        kept = {record["digest"] for record in survivors}
        for record in runs:
            if record["digest"] not in kept:
                self._records.delete(record["digest"])
        return len(survivors)


def _matches_fingerprint(record: Dict[str, Any], prefix: str) -> bool:
    for cert in record.get("certificates") or []:
        if str(cert.get("fingerprint", "")).startswith(prefix):
            return True
        if str(cert.get("digest", "")).startswith(prefix):
            return True
    return str(record.get("digest", "")).startswith(prefix)


# ---------------------------------------------------------------------------
# Run capture
# ---------------------------------------------------------------------------

class LedgerRun:
    """One armed capture: accumulates certificates and counters, then
    rolls them into a single run record at :meth:`flush`.

    Only the arming process (by pid) collects certificates and writes
    the record; forked pool workers inherit the object but their
    contributions travel back through the pool payload
    (:func:`worker_notes_since` / :func:`absorb_worker_notes`) and are
    merged in serial plan order.
    """

    def __init__(self, path: str, object: Optional[str] = None):
        self.path = path
        self.object = object
        self.pid = os.getpid()
        self.ts = time.time()
        self._t0 = time.monotonic()
        self._certs: List[Tuple[Any, Optional[float]]] = []
        self._child_ids: set = set()
        self._cache: Dict[str, float] = {
            "hits": 0, "misses": 0, "hit_latency_s": 0.0, "miss_latency_s": 0.0,
            "obligation_reused": 0, "obligation_rechecked": 0,
            "obligation_slice_misses": 0,
        }
        self._flushed: Optional[str] = None

    # -- capture hooks ------------------------------------------------------

    def note_certificate(self, cert: Any, wall_s: Optional[float] = None) -> None:
        if os.getpid() != self.pid:
            return  # worker-side stamping: the parent re-stamps the merge
        for index, (known, _) in enumerate(self._certs):
            if known is cert:
                if wall_s is not None:
                    self._certs[index] = (cert, wall_s)
                break
        else:
            self._certs.append((cert, wall_s))
        for child in getattr(cert, "children", ()) or ():
            self._mark_children(child)

    def _mark_children(self, cert: Any) -> None:
        self._child_ids.add(id(cert))
        for child in getattr(cert, "children", ()) or ():
            self._mark_children(child)

    def note_cache(self, status: str, latency_s: float = 0.0) -> None:
        if status == "hit":
            self._cache["hits"] += 1
            self._cache["hit_latency_s"] += latency_s
        else:
            self._cache["misses"] += 1
            self._cache["miss_latency_s"] += latency_s

    def note_obligation(self, field: str) -> None:
        key = "obligation_" + field
        if key in self._cache:
            self._cache[key] += 1

    def cache_notes(self) -> Dict[str, float]:
        return dict(self._cache)

    def absorb_cache_notes(self, delta: Dict[str, float]) -> None:
        for key, value in (delta or {}).items():
            if key in self._cache and value:
                self._cache[key] += value

    # -- record assembly ----------------------------------------------------

    def build_record(self) -> Dict[str, Any]:
        wall_s = time.monotonic() - self._t0
        roots = [
            (cert, wall)
            for cert, wall in self._certs
            if id(cert) not in self._child_ids
        ]
        certificates = []
        rules: Dict[str, Dict[str, Any]] = {}
        obligations_total = obligations_failed = 0
        root_provenances: List[Dict[str, Any]] = []
        obligation_profile: List[Dict[str, Any]] = []
        for cert, wall in roots:
            exported = _cert_json(cert)
            entry: Dict[str, Any] = {
                "judgment": exported.get("judgment"),
                "rule": exported.get("rule"),
                "ok": exported.get("ok"),
                "digest": certificate_digest(exported),
                "fingerprint": certificate_fingerprint(exported),
                "obligations": _count_obligations(exported),
            }
            if wall is not None:
                entry["wall_s"] = round(wall, 6)
            certificates.append(entry)
            obligations_total += entry["obligations"]["total"]
            obligations_failed += entry["obligations"]["failed"]
            for node in _iter_tree(exported):
                rule = node.get("rule") or "?"
                stats = rules.setdefault(rule, {"count": 0, "wall_s": 0.0})
                stats["count"] += 1
                provenance = node.get("provenance") or {}
                node_wall = provenance.get("wall_time_s")
                if isinstance(node_wall, (int, float)):
                    stats["wall_s"] = round(stats["wall_s"] + node_wall, 6)
                profile = provenance.get("profile") or {}
                for line in profile.get("obligations") or []:
                    if len(obligation_profile) < 200:
                        obligation_profile.append(dict(line))
            root_provenances.append(exported.get("provenance") or {})

        record: Dict[str, Any] = {
            "schema": RUN_SCHEMA,
            "kind": "engine",
            "ts": round(self.ts, 3),
            "object": self._object_label(certificates),
            "ok": all(c["ok"] for c in certificates) if certificates else True,
            "wall_s": round(wall_s, 6),
            "certificates": certificates,
            "obligations": {
                "total": obligations_total, "failed": obligations_failed,
            },
            "rules": {name: rules[name] for name in sorted(rules)},
            "cache": {
                "hits": int(self._cache["hits"]),
                "misses": int(self._cache["misses"]),
                "hit_latency_s": round(self._cache["hit_latency_s"], 6),
                "miss_latency_s": round(self._cache["miss_latency_s"], 6),
            },
            "versions": _versions(),
            "host": _host_info(),
            "env": _env_info(),
        }
        incremental = {
            "reused": int(self._cache["obligation_reused"]),
            "rechecked": int(self._cache["obligation_rechecked"]),
            "slice_misses": int(self._cache["obligation_slice_misses"]),
        }
        if any(incremental.values()):
            record["incremental"] = incremental
        record.update(ledger_fields(root_provenances))
        if obligation_profile:
            record["obligation_profile"] = obligation_profile
        if profile_enabled():
            record.update(PROFILER.run_summary())
        if obs_enabled():
            cache_hist = _cache_latency_histograms()
            if cache_hist:
                record["cache"]["latency_histograms"] = cache_hist
        artifacts = _artifact_paths()
        if artifacts:
            record["artifacts"] = artifacts
        return record

    def _object_label(self, certificates: List[Dict[str, Any]]) -> str:
        if self.object:
            return self.object
        env_label = os.environ.get(LEDGER_OBJECT_ENV, "").strip()
        if env_label:
            return env_label
        if certificates:
            return str(certificates[0]["judgment"])
        return "run"

    def flush(self) -> Optional[str]:
        """Build the record and append it; idempotent, parent-pid only."""
        if os.getpid() != self.pid or self._flushed is not None:
            return self._flushed
        ledger = RunLedger(self.path)
        self._flushed = ledger.append(self.build_record())
        return self._flushed


def _iter_tree(cert_json: Dict[str, Any]):
    yield cert_json
    for child in cert_json.get("children") or []:
        yield from _iter_tree(child)


def _count_obligations(cert_json: Dict[str, Any]) -> Dict[str, int]:
    total = failed = 0
    for node in _iter_tree(cert_json):
        for obligation in node.get("obligations") or []:
            total += 1
            if not obligation.get("ok"):
                failed += 1
    return {"total": total, "failed": failed}


def _versions() -> Dict[str, Any]:
    out: Dict[str, Any] = {"python": platform.python_version()}
    out.update(_ENGINE["versions"])
    return out


def _host_info() -> Dict[str, Any]:
    return {
        "hostname": platform.node(),
        "platform": sys.platform,
        "cpus": os.cpu_count(),
        "pid": os.getpid(),
    }


def _env_info() -> Dict[str, Any]:
    config = engine_config()
    return {
        "jobs": config.jobs,
        "reduce": config.reduce,
        "obs": obs_enabled(),
        "profile": profile_enabled(),
        "lint": config.lint,
        "cache": config.cache_dir is not None,
    }


def _cache_latency_histograms() -> Dict[str, Any]:
    histograms = (_metrics_snapshot() or {}).get("histograms") or {}
    return {
        name: summary
        for name, summary in histograms.items()
        if name.startswith("cache.") and summary.get("count")
    }


def _artifact_paths() -> Dict[str, str]:
    out: Dict[str, str] = {}
    heartbeat = _heartbeat_stream_path()
    if heartbeat:
        out["heartbeat"] = heartbeat
    return out


# ---------------------------------------------------------------------------
# Global arming (the stamping hooks in repro.core call into these)
# ---------------------------------------------------------------------------

_RUN: Optional[LedgerRun] = None


def ledger_armed() -> bool:
    """Whether a ledger run is armed in this process tree."""
    return _RUN is not None


def enable_ledger(path: str, object: Optional[str] = None) -> LedgerRun:
    """Arm the ledger: capture every certificate until :func:`disable_ledger`."""
    global _RUN
    if _RUN is not None and _RUN.pid == os.getpid():
        _RUN.flush()
    _RUN = LedgerRun(path, object=object)
    return _RUN


def disable_ledger(flush: bool = True) -> Optional[str]:
    """Disarm the ledger; with ``flush`` the run record is appended first."""
    global _RUN
    run, _RUN = _RUN, None
    if run is None:
        return None
    return run.flush() if flush else None


@contextmanager
def ledger(path: str, object: Optional[str] = None):
    """``with obs.ledger(path):`` — record this block as one ledger run."""
    run = enable_ledger(path, object=object)
    try:
        yield run
    finally:
        if _RUN is run:
            disable_ledger(flush=True)
        else:  # pragma: no cover - re-armed inside the block
            run.flush()


def note_certificate(cert: Any, wall_s: Optional[float] = None) -> None:
    """Stamping hook: a no-op unless a ledger run is armed.

    Called by :func:`repro.core.certificate.stamp_provenance` and
    :func:`~repro.core.certificate.stamp_cache_status` *before* their
    observability gates, so capture works with obs off — and it never
    mutates ``cert``, so certificate bytes are unaffected.
    """
    if _RUN is not None:
        _RUN.note_certificate(cert, wall_s)


def note_cache_event(status: str, latency_s: float = 0.0) -> None:
    """Cache hook: count a hit/miss (+latency) into the armed run."""
    if _RUN is not None:
        _RUN.note_cache(status, latency_s)


def note_obligation_event(field: str) -> None:
    """Obligation-cache hook: count a reuse/recheck/slice-miss event."""
    if _RUN is not None:
        _RUN.note_obligation(field)


def worker_notes_mark() -> Optional[Dict[str, float]]:
    """Snapshot of the run counters, taken by a pool worker per task."""
    if _RUN is None:
        return None
    return _RUN.cache_notes()


def worker_notes_since(mark: Optional[Dict[str, float]]) -> Optional[Dict[str, float]]:
    """The counter delta a worker ships back with its task result."""
    if _RUN is None or mark is None:
        return None
    delta = {
        key: value - mark.get(key, 0)
        for key, value in _RUN.cache_notes().items()
        if value - mark.get(key, 0)
    }
    return delta or None


def absorb_worker_notes(delta: Optional[Dict[str, float]]) -> None:
    """Merge a worker's shipped counter delta (parent side, plan order)."""
    if _RUN is not None and delta:
        _RUN.absorb_cache_notes(delta)


register_sink(
    "ledger", worker_notes_mark, worker_notes_since, absorb_worker_notes,
)


# ---------------------------------------------------------------------------
# Bench ingestion (the CI trend feed)
# ---------------------------------------------------------------------------

def ingest_bench(
    ledger_path: str,
    bench: Any,
    object: Optional[str] = None,
    ts: Optional[float] = None,
) -> str:
    """Convert one ``repro.bench/v1`` result into a ledger run record.

    ``bench`` is a payload dict or a path to a ``BENCH_<name>.json``
    file.  The record's metrics are the per-test wall times, so
    ``trends`` / ``regress`` treat bench history exactly like engine
    runs.  Returns the appended record's digest.
    """
    if isinstance(bench, str):
        with open(bench, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    else:
        payload = bench
    if not isinstance(payload, dict) or payload.get("schema") != "repro.bench/v1":
        raise ValueError(
            f"not a repro.bench/v1 result: schema="
            f"{payload.get('schema') if isinstance(payload, dict) else type(payload).__name__!r}"
        )
    module = payload.get("module") or "bench"
    tests: Dict[str, Dict[str, Any]] = {}
    ok = True
    wall = 0.0
    for entry in payload.get("tests") or []:
        nodeid = entry.get("nodeid")
        if not nodeid:
            continue
        duration = entry.get("duration_s") or 0.0
        outcome = entry.get("outcome")
        ok = ok and outcome == "passed"
        wall += duration
        tests[nodeid] = {"outcome": outcome, "duration_s": duration}
    if object is None:
        stem = str(module)
        if stem.endswith(".py"):
            stem = stem[:-3]
        object = stem[len("bench_"):] if stem.startswith("bench_") else stem
    record = {
        "schema": RUN_SCHEMA,
        "kind": "bench",
        "ts": round(time.time() if ts is None else ts, 3),
        "object": object,
        "ok": ok,
        "wall_s": round(wall, 6),
        "bench": {"module": module, "tests": tests},
        "versions": _versions(),
        "host": _host_info(),
    }
    return RunLedger(ledger_path).append(record)


# ---------------------------------------------------------------------------
# Cross-run statistics: series, median/MAD, regression detection
# ---------------------------------------------------------------------------

def run_metrics(record: Dict[str, Any]) -> Dict[str, float]:
    """The numeric time-series metrics one run record contributes."""
    out: Dict[str, float] = {}
    wall = record.get("wall_s")
    if isinstance(wall, (int, float)):
        out["wall_s"] = float(wall)
    obligations = record.get("obligations") or {}
    if "total" in obligations:
        out["obligations"] = float(obligations["total"])
        out["obligations_failed"] = float(obligations.get("failed", 0))
    redundancy = record.get("redundancy") or {}
    if "ratio" in redundancy:
        out["redundancy_ratio"] = float(redundancy["ratio"])
    reduction = record.get("reduction") or {}
    pruned = reduction.get("pruned") or {}
    if pruned:
        out["reduction_pruned"] = float(sum(pruned.values()))
    cache = record.get("cache") or {}
    lookups = (cache.get("hits") or 0) + (cache.get("misses") or 0)
    if lookups:
        out["cache_hit_rate"] = round(cache["hits"] / lookups, 4)
    incremental = record.get("incremental") or {}
    checked = (incremental.get("reused") or 0) + (incremental.get("rechecked") or 0)
    if checked:
        out["incremental_reuse_rate"] = round(incremental["reused"] / checked, 4)
    for nodeid, entry in ((record.get("bench") or {}).get("tests") or {}).items():
        duration = entry.get("duration_s")
        if isinstance(duration, (int, float)):
            out[nodeid] = float(duration)
    return out


def metric_series(
    runs: Iterable[Dict[str, Any]], metric: str
) -> List[Tuple[float, float]]:
    """``(ts, value)`` pairs of one metric over a run sequence."""
    out = []
    for record in runs:
        value = run_metrics(record).get(metric)
        if value is not None:
            out.append((record.get("ts") or 0.0, value))
    return out


def median(values: List[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        return 0.0
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mad(values: List[float], center: Optional[float] = None) -> float:
    """Median absolute deviation (the robust spread estimate)."""
    if not values:
        return 0.0
    center = median(values) if center is None else center
    return median([abs(v - center) for v in values])


def series_stats(values: List[float]) -> Dict[str, float]:
    med = median(values)
    return {
        "n": len(values),
        "median": round(med, 6),
        "mad": round(mad(values, med), 6),
        "min": round(min(values), 6) if values else 0.0,
        "max": round(max(values), 6) if values else 0.0,
        "latest": round(values[-1], 6) if values else 0.0,
    }


#: The reduction-effectiveness metric gates in the *opposite* direction:
#: a drop in pruned classes means the state-space reduction engine
#: stopped earning its keep, so *smaller is worse*.
_LOWER_IS_WORSE = frozenset({"reduction_pruned"})

#: Per-metric noise floors (fraction of the baseline median).  Reduction
#: counters are step functions of the checked workload, so they get a
#: wider floor than wall times; everything else uses the ``noise_floor``
#: argument.
_NOISE_FLOORS = {"reduction_pruned": 0.10}


def _timing(metric: str) -> bool:
    return metric == "wall_s" or "::" in metric


#: Metrics the ``regress`` gate inspects.  Larger-is-worse timings, plus
#: the smaller-is-worse reduction metric.  Everything else (obligation
#: counts, cache hit rates) is informational.
def _gateable(metric: str) -> bool:
    return _timing(metric) or metric in _LOWER_IS_WORSE


def detect_regressions(
    runs: List[Dict[str, Any]],
    metrics: Optional[List[str]] = None,
    warn_z: float = 4.0,
    fail_z: float = 6.0,
    warn_ratio: float = 1.10,
    fail_ratio: float = 1.25,
    min_history: int = 4,
    min_seconds: float = 0.05,
    noise_floor: float = 0.05,
) -> Dict[str, Any]:
    """Statistical regression gate over a run window, newest = candidate.

    For each gated metric, the baseline is every run but the newest;
    spread is estimated as ``1.4826 × MAD`` (the normal-consistent
    robust sigma), floored at ``noise_floor × median`` so a freakishly
    quiet baseline cannot turn timer jitter into a page.  The candidate
    fails when its robust z-score clears ``fail_z`` *and* its ratio to
    the median clears ``fail_ratio`` (both conditions, so neither tiny
    absolute changes nor tiny-MAD flukes alarm); ``warn_*`` likewise.
    Timing metrics whose baseline median is under ``min_seconds`` never
    gate — they are noise-dominated, mirroring ``compare``.

    The reduction metric (``reduction_pruned``) gates *downward*: the
    z-score and ratio measure how far the candidate fell below the
    baseline median, and it carries its own noise floor
    (:data:`_NOISE_FLOORS`) since pruning counts step with the workload
    rather than jitter like timers.
    """
    findings: List[Dict[str, Any]] = []
    status = "ok"
    if len(runs) < min_history + 1:
        return {
            "status": "insufficient-history",
            "runs": len(runs),
            "min_history": min_history,
            "findings": [],
        }
    candidate_run = runs[-1]
    baseline_runs = runs[:-1]
    candidate_metrics = run_metrics(candidate_run)
    names = metrics if metrics else sorted(
        name for name in candidate_metrics if _gateable(name)
    )
    for name in names:
        candidate = candidate_metrics.get(name)
        history = [v for _, v in metric_series(baseline_runs, name)]
        if candidate is None or len(history) < min_history:
            findings.append({"metric": name, "verdict": "no-history"})
            continue
        med = median(history)
        spread = 1.4826 * mad(history, med)
        finding: Dict[str, Any] = {
            "metric": name,
            "candidate": round(candidate, 6),
            "median": round(med, 6),
            "mad": round(mad(history, med), 6),
            "n": len(history),
        }
        if med < min_seconds and _timing(name):
            finding["verdict"] = "below min-seconds"
            findings.append(finding)
            continue
        floor = _NOISE_FLOORS.get(name, noise_floor)
        sigma = max(spread, floor * abs(med), 1e-9)
        if name in _LOWER_IS_WORSE:
            z = (med - candidate) / sigma
            ratio = med / candidate if candidate else float("inf")
        else:
            z = (candidate - med) / sigma
            ratio = candidate / med if med else float("inf")
        finding["z"] = round(z, 2)
        finding["ratio"] = round(ratio, 3)
        if z >= fail_z and ratio >= fail_ratio:
            finding["verdict"] = "fail"
            status = "fail"
        elif z >= warn_z and ratio >= warn_ratio:
            finding["verdict"] = "warn"
            if status == "ok":
                status = "warn"
        else:
            finding["verdict"] = "ok"
        findings.append(finding)
    return {"status": status, "runs": len(runs), "findings": findings}


# ---------------------------------------------------------------------------
# Certificate diff (provenance-level, over repro.cert/v1 exports)
# ---------------------------------------------------------------------------

def _obligation_index(cert_json: Dict[str, Any]) -> Dict[str, bool]:
    """``"judgment|rule|description" → ok`` over a whole tree."""
    out: Dict[str, bool] = {}
    for node in _iter_tree(cert_json):
        prefix = f"{node.get('judgment')}|{node.get('rule')}"
        for obligation in node.get("obligations") or []:
            out[f"{prefix}|{obligation.get('description')}"] = bool(
                obligation.get("ok")
            )
    return out


def diff_certificates(
    a: Dict[str, Any], b: Dict[str, Any]
) -> Dict[str, Any]:
    """Provenance-level diff of two exported certificates.

    Reports obligations added/removed/flipped between ``a`` (old) and
    ``b`` (new), plus coverage, redundancy and wall-time deltas from
    the root provenance annotations.
    """
    index_a, index_b = _obligation_index(a), _obligation_index(b)
    added = sorted(set(index_b) - set(index_a))
    removed = sorted(set(index_a) - set(index_b))
    flipped = sorted(
        key for key in set(index_a) & set(index_b) if index_a[key] != index_b[key]
    )
    out: Dict[str, Any] = {
        "schema": "repro.obs/certdiff/v1",
        "identical": certificate_digest(a) == certificate_digest(b),
        "a": {"judgment": a.get("judgment"), "rule": a.get("rule"),
              "ok": a.get("ok"), "digest": certificate_digest(a),
              "obligations": _count_obligations(a)},
        "b": {"judgment": b.get("judgment"), "rule": b.get("rule"),
              "ok": b.get("ok"), "digest": certificate_digest(b),
              "obligations": _count_obligations(b)},
        "obligations": {
            "added": added, "removed": removed, "flipped": flipped,
        },
    }
    coverage_a = (a.get("provenance") or {}).get("coverage") or {}
    coverage_b = (b.get("provenance") or {}).get("coverage") or {}
    coverage: Dict[str, Any] = {}
    for axis in sorted(set(coverage_a) | set(coverage_b)):
        explored_a = (coverage_a.get(axis) or {}).get("explored", 0)
        explored_b = (coverage_b.get(axis) or {}).get("explored", 0)
        if explored_a != explored_b or axis not in coverage_a or axis not in coverage_b:
            coverage[axis] = {
                "explored_a": explored_a if axis in coverage_a else None,
                "explored_b": explored_b if axis in coverage_b else None,
            }
    if coverage:
        out["coverage"] = coverage
    redundancy_a = ((a.get("provenance") or {}).get("profile") or {}).get(
        "redundancy"
    )
    redundancy_b = ((b.get("provenance") or {}).get("profile") or {}).get(
        "redundancy"
    )
    if redundancy_a or redundancy_b:
        out["redundancy"] = {
            "ratio_a": (redundancy_a or {}).get("ratio"),
            "ratio_b": (redundancy_b or {}).get("ratio"),
        }
    wall_a = (a.get("provenance") or {}).get("wall_time_s")
    wall_b = (b.get("provenance") or {}).get("wall_time_s")
    if wall_a is not None or wall_b is not None:
        out["wall_s"] = {"a": wall_a, "b": wall_b}
    return out


# ---------------------------------------------------------------------------
# Environment arming (REPRO_LEDGER=<dir>)
# ---------------------------------------------------------------------------

def _flush_env_run() -> None:  # pragma: no cover - exercised via subprocess
    if _RUN is not None and _RUN.pid == os.getpid():
        disable_ledger(flush=True)


_env_ledger = os.environ.get(LEDGER_ENV, "").strip()
if _env_ledger:
    enable_ledger(_env_ledger)
    atexit.register(_flush_env_run)
