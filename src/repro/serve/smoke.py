"""End-to-end smoke harness: ``python -m repro.serve.smoke --out DIR``.

Used by the CI ``serve-smoke`` job (and runnable locally): boots a real
daemon subprocess on an ephemeral port, pushes a cold ticket/MCS/queue
batch through the resident worker, replays the batch to hit the warm
store, asserts the service-level objectives from the metrics endpoint
(warm p50 under 100 ms, at least one store hit), saves a job's progress
stream as an artifact, then SIGTERMs the daemon and checks it drains
cleanly.  Exit status 0 on success; any assertion prints a diagnostic
and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from typing import List, Optional

from .client import ServeClient

#: The CI service-level objective for store-served submissions.
WARM_P50_BUDGET_MS = 100.0

BATCH = [
    {"stack": "ticket", "params": {"domain": [1, 2], "lock": "q0"}},
    {"stack": "mcs", "params": {"domain": [1, 2], "lock": "m0"}},
    {"stack": "queue", "params": {"domain": [1, 2], "queue": "rdq"}},
]


def boot_daemon(spool: str, timeout_s: float = 60.0):
    """Start the daemon subprocess; returns ``(process, client)``."""
    ready_file = os.path.join(spool, "ready.json")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.serve",
            "--port", "0", "--workers", "1",
            "--spool", spool, "--ready-file", ready_file,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if process.poll() is not None:
            out = process.stdout.read().decode("utf-8", "replace")
            raise RuntimeError(f"daemon died during boot:\n{out}")
        try:
            with open(ready_file, "r", encoding="utf-8") as handle:
                url = json.load(handle)["url"]
            return process, ServeClient(url)
        except (OSError, ValueError, KeyError):
            time.sleep(0.05)
    process.kill()
    raise RuntimeError("daemon did not become ready in time")


def run_smoke(out_dir: str, spool: Optional[str] = None) -> int:
    os.makedirs(out_dir, exist_ok=True)
    spool = spool or tempfile.mkdtemp(prefix="repro-serve-smoke-")
    failures: List[str] = []

    def check(ok: bool, label: str) -> None:
        print(("ok   " if ok else "FAIL ") + label, flush=True)
        if not ok:
            failures.append(label)

    process, client = boot_daemon(spool)
    try:
        health = client.healthz()
        check(health.get("ok") is True, "healthz reports ok")

        # Cold pass: three distinct stacks through the resident worker.
        t0 = time.perf_counter()
        cold = client.submit_batch(list(BATCH))
        cold = [client.job(doc["id"], wait=True) for doc in cold]
        cold_s = time.perf_counter() - t0
        check(
            all(doc["state"] == "done" and doc.get("ok") for doc in cold),
            f"cold batch of {len(BATCH)} verified in {cold_s:.2f}s",
        )

        # Warm pass: byte-for-byte replay served from the store.
        warm = client.submit_batch(list(BATCH))
        check(
            all(doc["state"] == "done" and doc.get("source") == "store"
                for doc in warm),
            "warm batch fully served from the certificate store",
        )

        metrics = client.metrics()
        hits = metrics["cache"]["hits"]
        p50 = metrics["latency"]["warm"]["p50_ms"]
        check(hits >= 1, f"cache.hits >= 1 (got {hits})")
        check(
            p50 is not None and p50 < WARM_P50_BUDGET_MS,
            f"warm p50 {p50} ms under {WARM_P50_BUDGET_MS:.0f} ms budget",
        )

        # Artifact: the first cold job's full progress stream.
        events = list(client.events(cold[0]["id"], follow=False))
        artifact = os.path.join(out_dir, f"{cold[0]['id']}-events.jsonl")
        with open(artifact, "w", encoding="utf-8") as handle:
            for record in events:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        check(
            any(r.get("type") == "end" for r in events),
            f"progress stream has terminal record ({len(events)} records "
            f"-> {artifact})",
        )
        with open(os.path.join(out_dir, "metrics.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(metrics, handle, indent=2, sort_keys=True)
    finally:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
            check(process.returncode == 0, "daemon drained cleanly on SIGTERM")
        except subprocess.TimeoutExpired:
            process.kill()
            check(False, "daemon drained cleanly on SIGTERM")
        output = process.stdout.read().decode("utf-8", "replace")
        with open(os.path.join(out_dir, "daemon.log"), "w",
                  encoding="utf-8") as handle:
            handle.write(output)

    if failures:
        print(f"\nserve-smoke: {len(failures)} failure(s)", flush=True)
        return 1
    print("\nserve-smoke: all checks passed", flush=True)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.serve.smoke")
    parser.add_argument("--out", default="serve-smoke-artifacts")
    parser.add_argument("--spool", default=None)
    args = parser.parse_args(argv)
    return run_smoke(args.out, spool=args.spool)


if __name__ == "__main__":
    raise SystemExit(main())
