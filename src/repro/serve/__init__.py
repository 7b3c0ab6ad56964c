"""Verification as a service: the ``repro.serve`` daemon.

CCAL's promise is that certificates compose and cache like build
artifacts; this package serves them like build artifacts too.  A
persistent daemon (``python -m repro.serve``) accepts layer-check jobs
over HTTP/JSON, runs them on **resident fork workers**
(:mod:`repro.serve.pool` — forked once at boot, fed picklable job
descriptors over a pipe each, no per-request interpreter or import
cost), dedupes identical in-flight work by content fingerprint, and
serves completed certificates from a sharded per-tenant
content-addressed store with LRU eviction.  A dead worker fails its job
and shows on ``/healthz``; it is not replaced.

Determinism across the wire: a served certificate's bytes are exactly
the bytes a serial obs-off CLI run of the same stack produces
(:func:`repro.serve.protocol.run_stack` / ``result_bytes``) — cold,
warm, or deduped.  Progress streams per job as chunked JSONL in the
``repro.obs/heartbeat/v1`` wire format (``repro.obs watch --url``
renders it live), and every completed verification appends a run-ledger
record so service traffic participates in ``repro.obs history`` /
``regress`` / ``dashboard``.

Modules: :mod:`~repro.serve.protocol` (wire schemas, stack registry,
worker-side execution), :mod:`~repro.serve.store` (CAS + metrics),
:mod:`~repro.serve.jobs` (records, dedup index, admission),
:mod:`~repro.serve.pool` (the resident workers, read on the event loop),
:mod:`~repro.serve.app` (the HTTP application), :mod:`~repro.serve.cli`
(the daemon entry point), :mod:`~repro.serve.client` (stdlib client),
:mod:`~repro.serve.smoke` (the CI end-to-end smoke harness).
"""

from .client import ServeClient
from .protocol import (
    JOB_SCHEMA,
    RESULT_SCHEMA,
    STACKS,
    JobError,
    job_fingerprint,
    parse_job,
    result_bytes,
    run_stack,
)
from .store import CertificateStore

__all__ = [
    "JOB_SCHEMA",
    "RESULT_SCHEMA",
    "STACKS",
    "CertificateStore",
    "JobError",
    "ServeClient",
    "job_fingerprint",
    "parse_job",
    "result_bytes",
    "run_stack",
]
