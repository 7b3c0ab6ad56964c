"""The verification daemon: a hand-rolled asyncio HTTP/1.1 application.

Stdlib only.  One event-loop thread owns every piece of daemon state
(job table, admission queue, certificate store, metrics) and reads the
workers' result pipes; the workers are separate processes.

Endpoints::

    GET  /healthz                      liveness + worker census (503
                                       once a worker has died)
    GET  /metrics                      repro.serve/metrics/v1 document
    POST /jobs                         submit one job (repro.serve/job/v1)
    POST /jobs/batch                   {"jobs": [...]} — submit many
    GET  /jobs/<id>[?wait=1]           job status (wait blocks to terminal)
    GET  /jobs/<id>/events[?follow=0]  chunked JSONL progress stream
    GET  /jobs/<id>/certificate        the served result document
    GET  /certs/<tenant>/<fp>          store lookup by content address

Submission walks warm-store → in-flight dedup → admission, in that
order: a stored certificate is served in microseconds with no queueing,
an identical in-flight job is joined as a follower (one verification,
one certificate per requesting tenant), and only genuinely new work
competes for the bounded queue (full → 429 with ``Retry-After``; no
live worker → 503 naming how the workers died).

The progress stream is the ``repro.obs/heartbeat/v1`` wire format —
the daemon writes admission records, the worker beats into the same
file, and consumers (``repro.obs watch --url``) tolerate torn lines
and unknown record types exactly as they do for on-disk streams.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from typing import Any, Dict, List, Optional, Set, Tuple
from urllib.parse import parse_qs, urlsplit

from .jobs import (
    DONE,
    FAILED,
    QUEUED,
    REJECTED,
    RUNNING,
    AdmissionQueue,
    JobRecord,
    JobTable,
    QueueFull,
)
from .protocol import JOB_SCHEMA, JobError, job_fingerprint, parse_job
from .store import CertificateStore, ServeMetrics

_JSON = "application/json"
_JSONL = "application/jsonl"

#: How long ``?wait=1`` blocks before returning the non-terminal doc.
DEFAULT_WAIT_S = 120.0

#: Poll interval for tailing a job's event file into a response stream.
_TAIL_INTERVAL_S = 0.05


class BadRequest(ValueError):
    """A malformed request field; answered 400 with this message."""


def _content_length(headers: Dict[str, str]) -> int:
    raw = headers.get("content-length", "0") or "0"
    if not raw.isdecimal():
        raise BadRequest(f"invalid Content-Length header {raw!r}")
    return int(raw)


class ServeApp:
    """All daemon state plus the HTTP request handler."""

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        workers: int = 1,
        queue_limit: int = 16,
        spool: str = ".repro-serve",
        store_root: Optional[str] = None,
        store_max_bytes: Optional[int] = None,
        ledger_dir: Optional[str] = None,
    ):
        from .pool import SerialPool, ServePool
        from .store import DEFAULT_MAX_BYTES

        self.loop = loop
        self.spool = os.path.abspath(spool)
        os.makedirs(os.path.join(self.spool, "events"), exist_ok=True)
        self.store = CertificateStore(
            store_root or os.path.join(self.spool, "store"),
            max_bytes=store_max_bytes or DEFAULT_MAX_BYTES,
        )
        self.ledger_dir = (
            ledger_dir if ledger_dir else os.path.join(self.spool, "ledger")
        )
        self.table = JobTable()
        self.queue = AdmissionQueue(queue_limit)
        self.metrics = ServeMetrics()
        self.draining = False
        self.drained = asyncio.Event()
        self._waiters: Dict[str, asyncio.Event] = {}
        # The ``ok`` of each stored result document by job fingerprint,
        # so a warm hit need not parse the document.  It depends on what
        # was verified, never on the tenant.
        self._result_ok: Dict[str, bool] = {}
        if workers <= 0 or not hasattr(os, "fork"):
            self.pool: Any = SerialPool(loop, self._on_done)
        else:
            self.pool = ServePool(workers, loop, self._on_done)

    # ------------------------------------------------------------------
    # Submission pipeline (loop thread)
    # ------------------------------------------------------------------

    def submit(self, document: Any) -> Tuple[int, Dict[str, Any]]:
        """One submission through warm-store → dedup → admission.

        Returns ``(http_status, job_document)``.
        """
        t_begin = time.perf_counter()
        spec = parse_job(document)
        fingerprint = job_fingerprint(spec)
        self.metrics.jobs_submitted += 1
        job = self.table.create(spec, fingerprint)

        if self.draining:
            self._reject(job, "daemon is draining", count=False)
            return 503, job.to_json()

        # 1. Warm path: the certificate is already in this tenant's store.
        stored = self.store.get(spec["tenant"], fingerprint)
        if stored is not None:
            self._complete_from_store(job, stored)
            self.metrics.warm.add(time.perf_counter() - t_begin)
            return 200, job.to_json()

        # 2. In-flight dedup: identical work is already queued or running.
        primary = self.table.primary_for(fingerprint)
        if primary is not None:
            self.table.register_follower(job, primary)
            job.state = primary.state
            self.metrics.jobs_deduped += 1
            return 202, job.to_json()

        # 3. Admission: genuinely new work competes for the bounded queue,
        # if a worker is left to run it.
        if not self.pool.alive():
            self._reject(job, self._no_worker())
            return 503, job.to_json()
        try:
            self.queue.push(job.id, spec["priority"])
        except QueueFull as full:
            self._reject(job, str(full))
            doc = job.to_json()
            doc["retry_after_s"] = self.retry_after(full.depth)
            return 429, doc

        job.events_path = os.path.join(
            self.spool, "events", f"{job.id}.jsonl"
        )
        self._event(job, {"type": "queued", "schema": JOB_SCHEMA,
                          "job": job.id, "stack": spec["stack"],
                          "tenant": spec["tenant"],
                          "priority": spec["priority"],
                          "queue_depth": len(self.queue)})
        self.table.register_primary(job)
        self._pump()
        return 202, job.to_json()

    def submit_batch(self, documents: List[Any]) -> Tuple[int, Dict[str, Any]]:
        results = []
        for document in documents:
            try:
                _status, doc = self.submit(document)
            except JobError as error:
                doc = {"state": "invalid", "error": str(error)}
            results.append(doc)
        return 200, {"jobs": results}

    def retry_after(self, backlog: int) -> int:
        """Seconds until a queue slot plausibly frees up."""
        p50 = self.metrics.cold.percentile(0.50) or 2.0
        workers = max(1, self.pool.workers)
        return max(1, int(backlog * p50 / workers + 0.999))

    # ------------------------------------------------------------------
    # Completion paths
    # ------------------------------------------------------------------

    def _complete_from_store(self, job: JobRecord, payload: bytes) -> None:
        job.source = "store"
        job.state = DONE
        job.finished_at = time.time()
        job.wall_s = 0.0
        job.result_ok = self._result_ok.get(job.fingerprint)
        if job.result_ok is None:
            try:
                job.result_ok = bool(json.loads(payload).get("ok"))
            except ValueError:  # pragma: no cover - store corruption
                pass
            else:
                self._result_ok[job.fingerprint] = job.result_ok
        # A synthetic event stream so watch works uniformly on warm jobs.
        job.events_path = os.path.join(
            self.spool, "events", f"{job.id}.jsonl"
        )
        pid = os.getpid()
        self._event(
            job,
            {"type": "start", "schema": "repro.obs/heartbeat/v1",
             "t_s": 0.0, "pid": pid},
            {"type": "heartbeat", "t_s": 0.0, "pid": pid,
             "phase": "store-hit", "job": job.id},
            {"type": "end", "t_s": 0.0, "pid": pid, "status": "done",
             "job": job.id},
        )
        self.metrics.jobs_completed += 1
        self._finish(job)

    def _reject(self, job: JobRecord, reason: str, count: bool = True) -> None:
        job.state = REJECTED
        job.error = reason
        job.finished_at = time.time()
        if count:
            self.metrics.jobs_rejected += 1
        for follower in self.table.followers_of(job):
            if not follower.terminal:
                self._reject(follower, reason)
        self.table.release(job)
        self._finish(job)

    def _on_done(self, job_id: str, outcome: Tuple[str, Any]) -> None:
        job = self.table.get(job_id)
        if job is None:  # pragma: no cover - table never forgets
            return
        kind, value = outcome
        payload = value if kind == "ok" else None
        followers = self.table.followers_of(job)
        job.source = "verified"
        unstored: Set[str] = set()
        if payload is not None and payload.get("bytes") is not None:
            failure = None
            job.wall_s = payload["wall_s"]
            job.error = payload.get("error")
            self.metrics.cold.add(payload["wall_s"])
            incremental = payload.get("incremental") or {}
            self.metrics.obligations_reused += incremental.get("reused", 0)
            self.metrics.obligations_rechecked += incremental.get("rechecked", 0)
            self.metrics.slice_misses += incremental.get("slice_misses", 0)
            # One store entry per requesting tenant: dedup shares the
            # work, never the artifact namespace.  A job whose entry
            # could not be written has nothing to serve, so it fails.
            tenants = sorted({m.spec["tenant"] for m in [job] + followers})
            unstored = {
                tenant for tenant in tenants
                if self.store.put(tenant, job.fingerprint, payload["bytes"]) is None
            }
            if len(unstored) < len(tenants):
                self._result_ok[job.fingerprint] = bool(payload["ok"])
        elif payload is not None:
            failure = payload.get("error", "worker error")
        else:  # the job never returned (its worker died): close its stream
            failure = str(value)
            self._event(job, {"type": "end", "status": "failed",
                              "error": failure, "job": job.id,
                              "pid": os.getpid(),
                              "t_s": round(time.time() - job.started_at, 3)})
        for member in [job] + followers:
            if member.terminal:
                continue
            tenant = member.spec["tenant"]
            error = failure
            if error is None and tenant in unstored:
                error = f"certificate store write failed for tenant {tenant!r}"
            if error is None:
                member.state = DONE
                member.result_ok = payload["ok"]
                member.wall_s = job.wall_s
                self.metrics.jobs_completed += 1
            else:
                member.state = FAILED
                member.error = error
                self.metrics.jobs_failed += 1
            if member is not job:
                member.finished_at = time.time()
                self._finish(member)
        job.finished_at = time.time()
        self.table.release(job)
        self._finish(job)
        self._pump()
        if self.draining and self.pool.in_flight == 0:
            self.drained.set()

    def _finish(self, job: JobRecord) -> None:
        waiter = self._waiters.pop(job.id, None)
        if waiter is not None:
            waiter.set()

    def _no_worker(self) -> str:
        return "no live worker: " + "; ".join(self.pool.deaths)

    def _pump(self) -> None:
        """Dispatch queued jobs onto free worker slots; with no worker
        left, reject them."""
        if not self.pool.alive():
            self._reject_queued(self._no_worker())
            return
        while not self.draining and self.pool.free_slots > 0:
            job_id = self.queue.pop()
            if job_id is None:
                return
            job = self.table.get(job_id)
            if job is None or job.terminal:  # pragma: no cover
                continue
            job.state = RUNNING
            job.started_at = time.time()
            for follower in self.table.followers_of(job):
                if not follower.terminal:
                    follower.state = RUNNING
            self.pool.dispatch(
                job.id,
                {
                    "job": job.id,
                    "stack": job.spec["stack"],
                    "params": job.spec["params"],
                    "events_path": job.events_path,
                    "ledger_dir": self.ledger_dir,
                },
            )

    def _reject_queued(self, reason: str) -> None:
        for job_id in self.queue.drain():
            job = self.table.get(job_id)
            if job is not None and not job.terminal:
                self._reject(job, reason)

    def _event(self, job: JobRecord, *records: Dict[str, Any]) -> None:
        """Append ``records`` to the job's event file in one write."""
        if not job.events_path:
            return
        lines = "".join(
            json.dumps(record, sort_keys=True) + "\n" for record in records
        )
        try:
            with open(job.events_path, "a", encoding="utf-8") as handle:
                handle.write(lines)
        except OSError:  # pragma: no cover - spool unwritable
            pass

    # ------------------------------------------------------------------
    # Drain (SIGTERM)
    # ------------------------------------------------------------------

    def begin_drain(self) -> None:
        """Graceful shutdown: queue rejected, in-flight jobs finish."""
        if self.draining:
            return
        self.draining = True
        self._reject_queued("daemon is draining")
        if self.pool.in_flight == 0:
            self.drained.set()

    # ------------------------------------------------------------------
    # HTTP layer
    # ------------------------------------------------------------------

    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                head = await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"), timeout=30.0
                )
            except (asyncio.IncompleteReadError, asyncio.TimeoutError,
                    asyncio.LimitOverrunError, ConnectionError):
                return
            try:
                method, target, headers = _parse_head(head)
            except ValueError:
                await _respond(writer, 400, {"error": "malformed request"})
                return
            try:
                body = await reader.readexactly(_content_length(headers))
                await self._route(writer, method, target, body)
            except BadRequest as error:
                await _respond(writer, 400, {"error": str(error)})
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as error:  # noqa: BLE001 - last-resort 500
            try:
                await _respond(
                    writer, 500,
                    {"error": f"{type(error).__name__}: {error}"},
                )
            except Exception:  # pragma: no cover
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:  # pragma: no cover
                pass

    async def _route(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        target: str,
        body: bytes,
    ) -> None:
        split = urlsplit(target)
        parts = [p for p in split.path.split("/") if p]
        query = {k: v[-1] for k, v in parse_qs(split.query).items()}

        if method == "GET" and parts == ["healthz"]:
            await _respond(writer, 503 if self.pool.deaths else 200, {
                "ok": not self.pool.deaths,
                "draining": self.draining,
                "workers": {"configured": self.pool.workers,
                            "alive": self.pool.alive(),
                            "dead": self.pool.deaths},
            })
            return
        if method == "GET" and parts == ["metrics"]:
            await _respond(writer, 200, self.metrics.to_json(self.store, {
                "workers": {"configured": self.pool.workers,
                            "alive": self.pool.alive(),
                            "in_flight": self.pool.in_flight},
                "queue": {"depth": len(self.queue),
                          "limit": self.queue.limit},
                "jobs_by_state": self.table.counts(),
                "draining": self.draining,
            }))
            return
        if method == "POST" and parts == ["jobs"]:
            document = _json_body(body)
            if document is None:
                await _respond(writer, 400, {"error": "body is not JSON"})
                return
            try:
                status, doc = self.submit(document)
            except JobError as error:
                await _respond(writer, 400, {"error": str(error)})
                return
            extra = {}
            if status == 429:
                extra["Retry-After"] = str(doc["retry_after_s"])
            await _respond(writer, status, doc, extra_headers=extra)
            return
        if method == "POST" and parts == ["jobs", "batch"]:
            document = _json_body(body)
            jobs = document.get("jobs") if isinstance(document, dict) else None
            if not isinstance(jobs, list):
                await _respond(
                    writer, 400, {"error": 'body must be {"jobs": [...]}'}
                )
                return
            status, doc = self.submit_batch(jobs)
            await _respond(writer, status, doc)
            return
        if method == "GET" and len(parts) == 2 and parts[0] == "jobs":
            job = self.table.get(parts[1])
            if job is None:
                await _respond(writer, 404, {"error": "no such job"})
                return
            if query.get("wait") in {"1", "true"} and not job.terminal:
                await self._wait_terminal(job, query)
            await _respond(writer, 200, job.to_json())
            return
        if (method == "GET" and len(parts) == 3 and parts[0] == "jobs"
                and parts[2] == "events"):
            job = self.table.get(parts[1])
            if job is None:
                await _respond(writer, 404, {"error": "no such job"})
                return
            follow = query.get("follow", "1") not in {"0", "false"}
            await self._stream_events(writer, job, follow)
            return
        if (method == "GET" and len(parts) == 3 and parts[0] == "jobs"
                and parts[2] == "certificate"):
            job = self.table.get(parts[1])
            if job is None:
                await _respond(writer, 404, {"error": "no such job"})
                return
            if not job.terminal:
                await self._wait_terminal(job, query)
            payload = self.store.get(job.spec["tenant"], job.fingerprint)
            if payload is None:
                await _respond(writer, 404, {
                    "error": job.error or "no certificate for this job",
                    "state": job.state,
                })
                return
            await _respond_bytes(writer, 200, payload, _JSON)
            return
        if method == "GET" and len(parts) == 3 and parts[0] == "certs":
            try:
                payload = self.store.get(parts[1], parts[2])
            except ValueError as error:  # an unsafe tenant or fingerprint
                raise BadRequest(str(error)) from None
            if payload is None:
                await _respond(writer, 404, {"error": "not in store"})
                return
            await _respond_bytes(writer, 200, payload, _JSON)
            return
        await _respond(writer, 404, {"error": f"no route for "
                                              f"{method} {split.path}"})

    async def _wait_terminal(self, job: JobRecord, query: Dict[str, str]) -> None:
        raw = query.get("timeout_s", DEFAULT_WAIT_S)
        try:
            timeout_s = float(raw)
        except ValueError:
            raise BadRequest(f"invalid timeout_s query parameter {raw!r}") from None
        waiter = self._waiters.setdefault(job.id, asyncio.Event())
        try:
            await asyncio.wait_for(
                waiter.wait(), timeout=max(0.0, min(timeout_s, 3600.0))
            )
        except asyncio.TimeoutError:
            pass

    async def _stream_events(
        self, writer: asyncio.StreamWriter, job: JobRecord, follow: bool
    ) -> None:
        """Chunk the job's JSONL stream out; forward complete lines only.

        The file is written by another *process* (the worker), so a read
        can observe a torn final line; everything up to the last newline
        is shipped, the tail is retried next poll.  The stream ends when
        the terminal heartbeat record has been forwarded (or immediately
        at EOF with ``follow=0``).
        """
        await _start_chunked(writer, _JSONL)
        offset = 0
        pending = b""
        try:
            while True:
                data = b""
                if job.events_path and os.path.exists(job.events_path):
                    with open(job.events_path, "rb") as handle:
                        handle.seek(offset)
                        data = handle.read()
                    offset += len(data)
                pending += data
                complete, _sep, pending = pending.rpartition(b"\n")
                if complete:
                    await _write_chunk(writer, complete + b"\n")
                if job.terminal and not data and not pending:
                    break
                if not follow and not data:
                    break
                await asyncio.sleep(_TAIL_INTERVAL_S)
        finally:
            await _end_chunked(writer)


# ---------------------------------------------------------------------------
# Minimal HTTP/1.1 plumbing
# ---------------------------------------------------------------------------

_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


def _parse_head(head: bytes) -> Tuple[str, str, Dict[str, str]]:
    lines = head.decode("latin-1").split("\r\n")
    method, target, _version = lines[0].split(" ", 2)
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _sep, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return method.upper(), target, headers


def _json_body(body: bytes) -> Optional[Any]:
    try:
        return json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None


async def _respond(
    writer: asyncio.StreamWriter,
    status: int,
    document: Any,
    extra_headers: Optional[Dict[str, str]] = None,
) -> None:
    payload = json.dumps(document, sort_keys=True).encode("utf-8") + b"\n"
    await _respond_bytes(writer, status, payload, _JSON, extra_headers)


async def _respond_bytes(
    writer: asyncio.StreamWriter,
    status: int,
    payload: bytes,
    content_type: str,
    extra_headers: Optional[Dict[str, str]] = None,
) -> None:
    head = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Status')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(payload)}",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        head.append(f"{name}: {value}")
    writer.write("\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + payload)
    await writer.drain()


async def _start_chunked(writer: asyncio.StreamWriter, content_type: str) -> None:
    writer.write(
        (
            "HTTP/1.1 200 OK\r\n"
            f"Content-Type: {content_type}\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
    )
    await writer.drain()


async def _write_chunk(writer: asyncio.StreamWriter, data: bytes) -> None:
    writer.write(f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n")
    await writer.drain()


async def _end_chunked(writer: asyncio.StreamWriter) -> None:
    writer.write(b"0\r\n\r\n")
    await writer.drain()
