"""A stdlib HTTP client for the daemon (tests, smoke harness, scripts).

``urllib`` only.  One request per connection, matching the server's
``Connection: close`` discipline.  429 responses surface as
:class:`Busy` carrying the parsed ``Retry-After``; event streams are
yielded record by record as their lines arrive, with the same
torn-line tolerance as ``repro.obs watch`` (urllib de-chunks the
transfer encoding, the client reads a line at a time and ignores
records it cannot parse).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Optional
from urllib.error import HTTPError
from urllib.request import Request, urlopen


class ServeError(RuntimeError):
    """A non-2xx daemon response."""

    def __init__(self, status: int, body: Any):
        super().__init__(f"HTTP {status}: {body}")
        self.status = status
        self.body = body


class Busy(ServeError):
    """429 — admission queue full; retry after ``retry_after_s``."""

    def __init__(self, status: int, body: Any, retry_after_s: int):
        super().__init__(status, body)
        self.retry_after_s = retry_after_s


class ServeClient:
    def __init__(self, base_url: str, timeout_s: float = 120.0):
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s

    # -- plumbing -----------------------------------------------------------

    def _request(
        self, method: str, path: str, document: Optional[Any] = None
    ) -> Any:
        payload = (
            None if document is None
            else json.dumps(document).encode("utf-8")
        )
        request = Request(
            self.base_url + path,
            data=payload,
            method=method,
            headers={"Content-Type": "application/json"} if payload else {},
        )
        try:
            with urlopen(request, timeout=self.timeout_s) as response:
                return json.loads(response.read().decode("utf-8"))
        except HTTPError as error:
            body = error.read().decode("utf-8", "replace")
            try:
                body = json.loads(body)
            except ValueError:
                pass
            if error.code == 429:
                raise Busy(
                    error.code, body,
                    int(error.headers.get("Retry-After", "1")),
                ) from None
            raise ServeError(error.code, body) from None

    def _request_bytes(self, path: str) -> bytes:
        try:
            with urlopen(self.base_url + path, timeout=self.timeout_s) as resp:
                return resp.read()
        except HTTPError as error:
            raise ServeError(
                error.code, error.read().decode("utf-8", "replace")
            ) from None

    # -- API ----------------------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def metrics(self) -> Dict[str, Any]:
        return self._request("GET", "/metrics")

    def submit(
        self,
        stack: str,
        params: Optional[Dict[str, Any]] = None,
        tenant: str = "public",
        priority: int = 0,
    ) -> Dict[str, Any]:
        return self._request("POST", "/jobs", {
            "stack": stack, "params": params or {},
            "tenant": tenant, "priority": priority,
        })

    def submit_batch(self, jobs: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        return self._request("POST", "/jobs/batch", {"jobs": jobs})["jobs"]

    def job(self, job_id: str, wait: bool = False,
            timeout_s: Optional[float] = None) -> Dict[str, Any]:
        path = f"/jobs/{job_id}"
        if wait:
            path += f"?wait=1&timeout_s={timeout_s or self.timeout_s}"
        return self._request("GET", path)

    def certificate(self, job_id: str) -> bytes:
        return self._request_bytes(f"/jobs/{job_id}/certificate")

    def stored(self, tenant: str, fingerprint: str) -> bytes:
        return self._request_bytes(f"/certs/{tenant}/{fingerprint}")

    def events(self, job_id: str, follow: bool = True) -> Iterator[Dict[str, Any]]:
        """Yield parsed progress records, each as soon as its line
        arrives, until the daemon ends the stream (after the ``end``
        record when following)."""
        path = f"{self.base_url}/jobs/{job_id}/events"
        if not follow:
            path += "?follow=0"
        with urlopen(path, timeout=self.timeout_s) as response:
            for line in iter(response.readline, b""):
                try:
                    record = json.loads(line.decode("utf-8"))
                except (ValueError, UnicodeDecodeError):
                    continue  # torn or foreign line: skip, keep reading
                if isinstance(record, dict):
                    yield record
