"""``python -m repro.serve`` — boot the verification daemon.

Forks the resident workers, binds, prints one machine-parsable ready
line (and optionally writes a ready file with the bound URL — the way
tests and the smoke harness discover an ephemeral ``--port 0``), then
serves until SIGTERM/SIGINT.  Shutdown is a graceful drain: queued
jobs are rejected, in-flight verifications run to completion and their
certificates land in the store, then the workers exit and are reaped.
A worker that dies is not replaced (see :mod:`repro.serve.pool`).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
from typing import List, Optional

from .app import ServeApp


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve layer verification over HTTP/JSON.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8077,
        help="TCP port; 0 binds an ephemeral port (see --ready-file)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="resident worker processes, forked at boot and not replaced "
             "if they die; 0 = in-process serial fallback",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=16,
        help="admission queue depth before 429",
    )
    parser.add_argument(
        "--spool", default=".repro-serve",
        help="daemon scratch root (event streams, default store/ledger)",
    )
    parser.add_argument(
        "--store", default=None,
        help="served-certificate store root (default: <spool>/store)",
    )
    parser.add_argument(
        "--store-max-bytes", type=int, default=None,
        help="LRU eviction budget for the store",
    )
    parser.add_argument(
        "--ledger", default=None,
        help="run-ledger directory (default: <spool>/ledger)",
    )
    parser.add_argument(
        "--ready-file", default=None,
        help="write {url, pid} JSON here once listening",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=60.0,
        help="seconds to wait for in-flight jobs on shutdown",
    )
    return parser


async def serve(args: argparse.Namespace) -> int:
    loop = asyncio.get_running_loop()
    app = ServeApp(
        loop,
        workers=args.workers,
        queue_limit=args.queue_limit,
        spool=args.spool,
        store_root=args.store,
        store_max_bytes=args.store_max_bytes,
        ledger_dir=args.ledger,
    )
    server = await asyncio.start_server(app.handle, args.host, args.port)
    host, port = server.sockets[0].getsockname()[:2]
    url = f"http://{host}:{port}"

    stop = asyncio.Event()

    def _on_signal() -> None:
        app.begin_drain()
        stop.set()

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, _on_signal)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            signal.signal(signum, lambda *_: _on_signal())

    print(
        f"repro-serve ready url={url} workers={app.pool.workers} "
        f"pid={os.getpid()}",
        flush=True,
    )
    if args.ready_file:
        payload = json.dumps({"url": url, "pid": os.getpid()})
        tmp = args.ready_file + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        os.replace(tmp, args.ready_file)

    async with server:
        await stop.wait()
        # Drain: new submissions now get 503; wait for in-flight work.
        try:
            await asyncio.wait_for(
                app.drained.wait(), timeout=args.drain_timeout
            )
        except asyncio.TimeoutError:  # pragma: no cover - stuck job
            print("repro-serve drain timeout; killing workers",
                  file=sys.stderr, flush=True)
            app.pool.kill()
        server.close()
        await server.wait_closed()
    app.pool.shutdown()
    print("repro-serve stopped", flush=True)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return asyncio.run(serve(args))
    except KeyboardInterrupt:  # pragma: no cover
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
