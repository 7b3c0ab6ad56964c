"""Content-addressed on-disk certificate cache.

The engine analogue of CompCertX separate compilation: a layer module
whose inputs — implementation code, underlay and overlay interfaces,
simulation relation, bounds — have not changed need not be re-verified;
its certificate is reloaded from disk.  Keys are canonical fingerprints
(:mod:`repro.parallel.canonical`) of exactly those inputs plus
``ENGINE_VERSION``, which is bumped whenever checker semantics change
(the invalidation rule for everything the fingerprint cannot see, such
as module-level globals).

The cache stores *certificates*, not verdicts: a cached failing
certificate replays its counterexamples, and callers that
``require_ok`` raise identically on a warm run.  Stored certificates
are recursively stripped of provenance, so a warm run's
``Certificate.to_json()`` is byte-identical to a serial cold run with
observability off, regardless of the observability state of the run
that populated the cache.

Location and switch come from the pinned engine configuration
(:func:`repro.envflags.engine_config`): ``$REPRO_CACHE_DIR``, else
``~/.cache/repro``, and the cache is off unless ``REPRO_CACHE_DIR`` is
set or ``REPRO_CACHE`` is truthy.
Entries live in a :class:`repro.cas.ContentStore`: writes are atomic,
so concurrent runs sharing a cache directory at worst both compute,
and every read is digest-checked, so a damaged entry is reported as a
:class:`repro.cas.StoreWarning` and recomputed, never served.
"""

from __future__ import annotations

import pickle
import time
from typing import Any, Callable, ContextManager, Dict, Iterable, Optional, Tuple

from ..analysis.rules import RULESET_VERSION
from ..cas import ContentStore
from ..envflags import default_cache_dir, engine_config
from ..obs.blocks import register_block, tallies, tally
from ..obs.metrics import inc, observe
from ..obs.profile import profile_enabled
from ..obs.store import ledger_armed, register_engine
from .canonical import canonical_fingerprint
from .pool import get_jobs

#: Version of the checker semantics baked into every cache key.  Bump on
#: any change to obligation generation, enumeration order, bounds
#: semantics or certificate layout.  The lint rule-set version is folded
#: in so certificates produced under an older rule set are invalidated —
#: both through the content address and through ``_load``'s engine
#: check on existing entries.
ENGINE_VERSION = "repro-engine/3+" + RULESET_VERSION

_SCHEMA = "repro.cache/v1"


def cache_enabled() -> bool:
    """Whether the on-disk certificate cache is active."""
    return engine_config().cache_dir is not None


register_engine(
    versions={"engine": ENGINE_VERSION, "ruleset": RULESET_VERSION},
    fingerprint=canonical_fingerprint,
)


def cache_dir() -> str:
    """The cache root (``$REPRO_CACHE_DIR`` or ``~/.cache/repro``)."""
    return engine_config().cache_dir or default_cache_dir()


def _content_store() -> ContentStore:
    return ContentStore(cache_dir(), ".pkl")


def clear_cache() -> int:
    """Delete every cache entry; returns the number removed."""
    return _content_store().clear()


def cache_key(kind: str, parts: Tuple[Any, ...]) -> str:
    """The content address of one rule application."""
    return canonical_fingerprint((kind, ENGINE_VERSION) + tuple(parts))


def _load(key: str) -> Optional[Any]:
    store = _content_store()
    payload = store.get(key)
    if payload is None:
        return None
    try:
        entry = pickle.loads(payload)
    except Exception as error:  # noqa: BLE001 - e.g. a class that moved
        store.discard(key, f"payload does not unpickle ({error!r})")
        return None
    if not isinstance(entry, dict) or entry.get("schema") != _SCHEMA:
        return None
    if entry.get("engine") != ENGINE_VERSION:
        return None
    return entry.get("certificate")


def _store(key: str, certificate: Any) -> None:
    entry = {"schema": _SCHEMA, "engine": ENGINE_VERSION,
             "certificate": certificate}
    payload = pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
    _content_store().put(key, payload)  # best-effort: never fail verification


def _strip_provenance(cert):
    """A provenance-free copy of a certificate tree (for storage)."""
    from ..core.certificate import Certificate

    return Certificate(
        judgment=cert.judgment,
        rule=cert.rule,
        obligations=list(cert.obligations),
        bounds=dict(cert.bounds),
        log_universe=tuple(cert.log_universe),
        children=[_strip_provenance(child) for child in cert.children],
        provenance=None,
    )


def cached_certificate(
    kind: str,
    parts: Tuple[Any, ...],
    compute: Callable[[], Any],
) -> Any:
    """Look up the certificate for one rule application, or compute it.

    ``parts`` are the rule's semantic inputs (fingerprinted, together
    with ``kind`` and ``ENGINE_VERSION``, into the content address).
    With the cache disabled this is just ``compute()``.  With
    observability enabled the returned certificate's provenance gains a
    ``cache`` field (``"hit"`` or ``"miss"``) and the (truncated) key.
    """
    from ..core.certificate import stamp_cache_status

    if not cache_enabled():
        return compute()
    prof = profile_enabled()
    timed = prof or ledger_armed()
    key = cache_key(kind, parts)
    t_lookup = time.perf_counter() if timed else 0.0
    cert = _load(key)
    if cert is not None:
        inc("cache.hits")
        hit_latency = (time.perf_counter() - t_lookup) if timed else 0.0
        if prof:
            observe("cache.hit_latency_s", hit_latency)
        tally("hits")
        tally("hit_latency_s", hit_latency)
        return stamp_cache_status(cert, "hit", key=key, workers=get_jobs())
    inc("cache.misses")
    t_missed = time.perf_counter() if timed else 0.0
    cert = compute()
    t_store = time.perf_counter() if timed else 0.0
    _store(key, _strip_provenance(cert))
    # Miss latency is the cache's own overhead on the miss path — the
    # failed lookup plus the store — not the recompute between them,
    # which belongs to the rule's own spans.
    miss_latency = (
        (t_missed - t_lookup) + (time.perf_counter() - t_store) if timed else 0.0
    )
    if prof:
        observe("cache.miss_latency_s", miss_latency)
    tally("misses")
    tally("miss_latency_s", miss_latency)
    return stamp_cache_status(cert, "miss", key=key, workers=get_jobs())


# --- obligation-granular entries --------------------------------------------
#
# The rule-level cache above keys on *every* input of a rule
# application; editing one primitive invalidates the whole rule.  The
# entries below key on per-obligation dependency slices
# (:mod:`repro.analysis.slices`): one entry per scenario, per argument
# vector, per client game.  A rule-level miss then assembles its
# certificate from warm per-obligation entries and re-verifies only the
# obligations whose slice fingerprint changed.
#
# Stored values are provenance-free (certificates are stripped exactly
# like rule-level entries; payload dicts store only the
# observability-independent fields), so a warm assembly is byte-identical
# to a cold serial run with observability off.

#: Ambient counts for one verification request (``repro.serve`` opens
#: one scope per job so /metrics can report incremental reuse even with
#: observability forced off).  Each event is one
#: :func:`~repro.obs.blocks.tally`, so it reaches every open scope that
#: counts it, the armed run ledger's too, and counts made in fork-pool
#: workers reach the parent through the ``tallies`` pool sink.
_INC_FIELDS = ("reused", "rechecked", "slice_misses")


def incremental_collector() -> ContextManager[Dict[str, int]]:
    """Collect obligation-cache reuse counts for one request: a
    ``tallies("reused", "rechecked", "slice_misses")`` scope."""
    return tallies(*_INC_FIELDS)


def note_incremental(field: str) -> None:
    """Tally one obligation-cache event into every open scope, and count
    it once as the ``cache.obligation_<field>`` metric."""
    tally(field)
    inc("cache.obligation_" + field)


def merge_incremental_records(records: Iterable[Any]) -> Optional[Dict[str, int]]:
    """Fold child ``incremental`` provenance values into one rollup.

    Accepts both shapes: a per-obligation stamp (``{"status": "reused",
    ...}``) and an already-rolled-up block (``{"reused": 3, ...}``).
    Returns ``None`` when nothing incremental happened below.
    """
    totals = {field: 0 for field in _INC_FIELDS}
    saw = False
    for record in records:
        if not isinstance(record, dict):
            continue
        status = record.get("status")
        if status in ("reused", "rechecked"):
            saw = True
            totals[status] += 1
            if not record.get("exact", True):
                totals["slice_misses"] += 1
            continue
        for field in _INC_FIELDS:
            value = record.get(field)
            if isinstance(value, int):
                saw = True
                totals[field] += value
    return totals if saw else None


register_block("incremental", merge_incremental_records)


def cached_obligation(
    kind: str,
    key: Optional[Tuple[Tuple[Any, ...], bool]],
    compute: Callable[[], Any],
) -> Any:
    """Per-obligation cache for a certificate-valued check.

    ``key`` is an :data:`~repro.analysis.slices.ObligationKey` —
    ``(parts, exact)`` — or ``None`` to bypass (callers pass ``None``
    when the cache is disabled or no key builder applies).  An inexact
    slice still caches (its parts embed the whole rule inputs) but is
    counted as a ``slice_miss`` because it loses sub-rule
    incrementality.
    """
    if key is None or not cache_enabled():
        return compute()
    from ..core.certificate import Certificate, stamp_incremental

    parts, exact = key
    if not exact:
        note_incremental("slice_misses")
    entry_key = cache_key("obligation:" + kind, parts)
    cert = _load(entry_key)
    if isinstance(cert, Certificate):
        note_incremental("reused")
        return stamp_incremental(cert, "reused", key=entry_key, exact=exact)
    cert = compute()
    _store(entry_key, _strip_provenance(cert))
    note_incremental("rechecked")
    return stamp_incremental(cert, "rechecked", key=entry_key, exact=exact)


def cached_obligation_payload(
    kind: str,
    key: Optional[Tuple[Tuple[Any, ...], bool]],
    compute: Callable[[], Dict[str, Any]],
    fields: Tuple[str, ...],
) -> Dict[str, Any]:
    """Per-obligation cache for a payload-dict check (sim args, clients).

    Only ``fields`` (the observability-independent outputs) are stored;
    a warm load leaves the remaining keys absent, which callers treat
    like an obs-off run.  The returned dict carries an ``incremental``
    note the caller folds into rule-level provenance.
    """
    if key is None or not cache_enabled():
        return compute()
    parts, exact = key
    if not exact:
        note_incremental("slice_misses")
    entry_key = cache_key("obligation:" + kind, parts)
    entry = _load(entry_key)
    if isinstance(entry, dict):
        note_incremental("reused")
        output = dict(entry)
        output["incremental"] = {
            "status": "reused", "exact": exact, "key": entry_key[:16],
        }
        return output
    output = compute()
    _store(entry_key, {field: output[field] for field in fields})
    note_incremental("rechecked")
    output = dict(output)
    output["incremental"] = {
        "status": "rechecked", "exact": exact, "key": entry_key[:16],
    }
    return output
