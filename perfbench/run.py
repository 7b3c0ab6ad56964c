"""The checker's benchmark: one workload per run, untraced or traced.

    python3 perfbench/run.py --workload fig5_cold --seed 0 --seconds 20 --trace 0

Run from the root of a checkout (``src/repro`` beside this directory).
``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes a separate traced run and reports the per-layer
metrics.  Every output is checked against the known answers in
``known_answers.json``; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` and the exit code is
0 only when every check passed.  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import itertools
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from http.client import HTTPException
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import tracer
from hostref import host_reference, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = HERE / "results" / "scratch"

WORKLOADS = ("fig5_cold", "table2_cold", "incremental_edit", "serve_mixed")

#: Fewest samples (and, on serve_mixed, cold and warm requests) per run,
#: however short ``--seconds`` is.
MIN_SAMPLES = 3
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: A run stops sampling after this long, so it ends well within 180 s.
DEADLINE_S = 150.0
CHILD_TIMEOUT_S = 120.0

#: serve_mixed: resubmitted jobs (prefilled during set-up) and the share
#: of never-seen jobs.  A never-seen job is a ticket lock under a fresh
#: lock name, which costs the same as the prefilled ticket jobs (a fresh
#: ``fuel`` would not: the spin loops run longer with more fuel).
WARM_JOBS: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("fig5", {}),
    ("mcs", {}),
    ("queue", {}),
) + tuple(("ticket", {"lock": f"q{i}"}) for i in range(5))
#: Every 10th request of a client is a never-seen job (a seed-chosen
#: phase), so the cold share does not vary from run to run.
COLD_EVERY = 10
CLIENTS = 2
COLD_CHECKS = 5


def job_label(stack: str, params: Dict[str, Any]) -> str:
    return "/".join([stack] + [str(v) for _k, v in sorted(params.items())])


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def share(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole else 0.0


@dataclass
class Child:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    spawned: float
    rss_mb: float

    def document(self) -> Dict[str, Any]:
        return json.loads(self.stdout.strip().splitlines()[-1])


@dataclass
class Run:
    """One invocation: its scratch directory, clock, checks and metrics."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    work: Path
    started: float = field(default_factory=time.monotonic)
    attempted: int = 0
    problems: List[str] = field(default_factory=list)
    host_ref: List[float] = field(default_factory=list)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    #: unscaled medians of the end-to-end times, printed beside them
    raw: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    table: List[str] = field(default_factory=list)

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def sampling(self, count: int, since: float) -> bool:
        """Whether to take another sample after ``count`` since ``since``."""
        if self.elapsed() >= DEADLINE_S:
            return False
        return count < MIN_SAMPLES or time.monotonic() - since < self.seconds

    def check(self, ok: bool, problem: str) -> bool:
        self.attempted += 1
        if not ok:
            self.problems.append(problem)
        return ok

    def env(self, **extra: str) -> Dict[str, str]:
        """The environment of every process the run starts.

        ``REPRO_*`` settings of the caller are dropped so every run
        measures the default engine; temporary files stay in the run's
        directory; a fixed hash seed keeps set iteration order, and so
        the exploration order, the same in every process.
        """
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", TMPDIR=str(self.work))
        env.update(extra)
        return env

    def child(self, spec: Dict[str, Any], **env: str) -> Child:
        """Run ``child.py`` to completion; also returns its peak RSS."""
        # No child outlives DEADLINE_S + 20 s, so the run ends within 180 s.
        timeout = max(1.0, min(CHILD_TIMEOUT_S, DEADLINE_S + 20 - self.elapsed()))
        with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
            spawned = time.monotonic()
            process = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                stdout=out, stderr=err, env=self.env(**env), cwd=ROOT,
            )
            watchdog = threading.Timer(timeout, process.kill)
            watchdog.start()
            try:
                _pid, status, usage = os.wait4(process.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.monotonic() - spawned
            process.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Child(
                process.returncode,
                out.read().decode("utf-8", "replace"),
                err.read().decode("utf-8", "replace"),
                wall,
                spawned,
                usage.ru_maxrss / 1024.0,
            )


# ---------------------------------------------------------------------------
# Engine workloads: one fresh interpreter per sample
# ---------------------------------------------------------------------------


def known(workload: str) -> Dict[str, Any]:
    return json.loads((HERE / "known_answers.json").read_text())[workload]


def engine_sample(
    run: Run, answers: Dict[str, Any], edit: Optional[int], trace: bool,
    cache: Optional[Path], fill: bool = False,
) -> Optional[Tuple[Child, Dict[str, Any]]]:
    """One checked sample; ``None`` if it failed (recorded on ``run``)."""
    spec = {
        "mode": "sample", "workload": run.workload, "trace": trace, "edit": edit,
        "trace_out": str(SCRATCH / f"trace_{run.workload}.json") if trace else None,
    }
    env = {"REPRO_CACHE_DIR": str(cache)} if cache is not None else {}
    child = run.child(spec, **env)
    label = f"{run.workload} {'fill' if fill else 'sample'} (trace={int(trace)})"
    failure = f"{label}: exit {child.code}\n{child.stderr[-2000:]}"
    if not run.check(child.code == 0, failure):
        return None
    doc = child.document()
    counts = answers["fill_counts" if fill else "counts"]
    problems = []
    if doc["ok"] is not True:
        problems.append("a certificate failed")
    if doc["digest"] != answers["digest"]:
        problems.append(f"digest {doc['digest']} != pinned {answers['digest']}")
    if doc["counts"] != counts:
        problems.append(f"reuse counts {doc['counts']} != {counts}")
    if problems:
        run.problems.append(f"{label}: " + "; ".join(problems))
        return None
    return child, doc


def lifetime(child: Child, doc: Dict[str, Any]) -> float:
    """Wall time of a sample process, less its host reference loops."""
    return child.wall_s - sum(doc["host_ref"])


def run_engine(run: Run) -> None:
    answers = known(run.workload)
    caches: Dict[bool, Optional[Path]] = {False: None, True: None}
    fills: List[Tuple[Child, Dict[str, Any]]] = []
    if run.workload == "incremental_edit":
        # Set-up is the cold cache fill; samples then re-verify from it.
        for k in range(SETUP_REPEATS):
            cache = run.work / f"cache{k}"
            done = engine_sample(run, answers, None, False, cache, fill=True)
            if done is not None:
                fills.append(done)
        caches[False] = run.work / "cache0"
        if run.trace:
            # Wrapped helpers fingerprint differently: traced samples
            # need a cache filled under the tracer.
            caches[True] = run.work / "cache-traced"
            engine_sample(run, answers, None, True, caches[True], fill=True)
    edits = itertools.count(random.Random(run.seed).randrange(10**9))

    plain: List[Tuple[Child, Dict[str, Any]]] = []
    traced: List[Tuple[Child, Dict[str, Any]]] = []
    measured_from = time.monotonic()
    while run.sampling(len(plain), measured_from):
        done = engine_sample(run, answers, next(edits), False, caches[False])
        if done is not None:
            plain.append(done)
        if run.trace:
            done = engine_sample(run, answers, next(edits), True, caches[True])
            if done is not None:
                traced.append(done)

    def record(name: str, samples: List[Tuple[Child, Dict[str, Any]]],
               measure: Callable[[Child, Dict[str, Any]], float]) -> List[float]:
        values = [measure(child, doc) for child, doc in samples]
        refs = [statistics.mean(doc["host_ref"]) for _c, doc in samples]
        scaled = [scale(v, ref) for v, ref in zip(values, refs)]
        run.end_to_end[name] = median(scaled)
        run.raw[name] = median(values)
        return scaled

    if fills:
        record("setup_s", fills, lifetime)
    else:
        record("setup_s", plain, lambda child, doc: doc["ready"] - child.spawned)
    latencies = record("latency_p50_s", plain, lifetime)
    record("verify_p50_s", plain, lambda _child, doc: doc["verify_s"])
    run.end_to_end.update(
        # One client, closed loop: 1 / mean response time.
        throughput_per_s=len(latencies) / sum(latencies) if latencies else 0.0,
        peak_rss_mb=max((child.rss_mb for child, _d in plain), default=0.0),
    )
    run.host_ref.extend(ref for _c, doc in plain for ref in doc["host_ref"])
    run.table.append(f"samples: {len(plain)} untraced, {len(traced)} traced")
    if run.trace:
        untraced = run.end_to_end["verify_p50_s"]
        layer_metrics(run, [doc for _c, doc in traced], untraced)
    probe = run.child({"mode": "probe"})
    run.check(
        probe.code == 0 and probe.document()["ok"] is False,
        f"broken-rel ticket lock was not refused (exit {probe.code})\n"
        + probe.stderr[-2000:],
    )


def layer_metrics(
    run: Run, docs: List[Dict[str, Any]], untraced_verify: float
) -> None:
    """Per-boundary medians over the traced samples, as shares of verify."""
    values: Dict[str, List[float]] = {}

    def add(name: str, value: float) -> None:
        values.setdefault(name, []).append(value)

    for doc in docs:
        layers, verify = doc["layers"], doc["verify_s"]
        scaled_verify = scale(verify, statistics.mean(doc["host_ref"]))
        inside = 0.0
        for name, stat in layers.items():
            add(f"{name}.calls", stat["calls"])
            add(f"{name}.total_pct", share(stat["total_s"], verify))
            add(f"{name}.self_pct", share(stat["self_s"], verify))
            inside += stat["self_s"]
        add("trace.outside_pct", share(verify - inside, verify))
        add("trace.verify_p50_s", scaled_verify)
        hits, misses = doc["replay"]["hits"], doc["replay"]["misses"]
        add("core.replay.hit_ratio", hits / (hits + misses) if hits + misses else 0.0)
        games = layers["core.machine.run_game"]["calls"]
        add("core.machine.distinct_ratio",
            doc["distinct_behaviours"] / games if games else 0.0)
        counts = doc["counts"]
        checked = counts["reused"] + counts["rechecked"]
        add("parallel.cache.reuse_ratio",
            counts["reused"] / checked if checked else 0.0)
    medians = {name: median(v) for name, v in values.items()}
    run.per_layer.update(medians)
    traced_verify = medians["trace.verify_p50_s"]
    run.per_layer["trace_overhead"] = (
        traced_verify / untraced_verify - 1.0 if untraced_verify else 0.0
    )
    run.table.append(f"{'boundary':52s} {'calls':>9s} {'total%':>7s} {'self%':>7s}")
    for module, qualname in tracer.BOUNDARIES:
        name = tracer.boundary_name(module, qualname)
        run.table.append(
            f"{name:52s} {medians[name + '.calls']:9.0f} "
            f"{medians[name + '.total_pct']:7.2f} {medians[name + '.self_pct']:7.2f}"
        )


# ---------------------------------------------------------------------------
# serve_mixed: one daemon, two closed-loop clients
# ---------------------------------------------------------------------------


class Daemon:
    """``python -m repro.serve`` with one worker, in its own process group
    so a stuck daemon can be killed together with its worker."""

    def __init__(self, run: Run, spool: Path):
        from repro.serve.client import ServeClient

        spool.mkdir(parents=True)
        ready = spool / "ready.json"
        self.log = open(spool / "daemon.log", "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0", "--workers", "1",
             "--spool", str(spool), "--ready-file", str(ready)],
            stdout=self.log, stderr=subprocess.STDOUT, env=run.env(), cwd=ROOT,
            start_new_session=True,
        )
        deadline = time.monotonic() + 60.0
        while True:
            try:
                url = json.loads(ready.read_text())["url"]
                break
            except (OSError, ValueError, KeyError):
                if self.process.poll() is not None or time.monotonic() > deadline:
                    self.stop()
                    log = (spool / "daemon.log").read_text(errors="replace")
                    raise RuntimeError(f"daemon did not start:\n{log[-2000:]}")
                time.sleep(0.01)
        self.client = ServeClient(url, timeout_s=60.0)

    def stop(self) -> float:
        """Drain with SIGTERM; returns the peak RSS (MB) of daemon and worker."""
        rss_mb = 0.0
        if self.process.returncode is None:
            self.process.send_signal(signal.SIGTERM)
            watchdog = threading.Timer(30.0, self._kill)
            watchdog.start()
            try:
                _pid, status, usage = os.wait4(self.process.pid, 0)
            finally:
                watchdog.cancel()
            self.process.returncode = os.waitstatus_to_exitcode(status)
            rss_mb = usage.ru_maxrss / 1024.0
        self._kill()  # a worker orphaned by a daemon that died
        self.log.close()
        return rss_mb

    def _kill(self) -> None:
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def bracketed(run: Run, action: Callable[[], Any]) -> Tuple[Any, float, float]:
    """``(result, seconds, host reference)`` of ``action``, timed between
    two host reference loops."""
    before = host_reference()
    started = time.perf_counter()
    result = action()
    seconds = time.perf_counter() - started
    ref = (before + host_reference()) / 2
    run.host_ref.append(ref)
    return result, seconds, ref


@dataclass
class Request:
    label: str
    cold: bool
    started: float = 0.0
    #: host reference of the request's moment (see :func:`traffic`)
    ref: float = 0.0
    latency_s: float = 0.0
    submit_s: float = 0.0
    wait_s: float = 0.0
    certificate_s: float = 0.0
    job: Optional[Dict[str, Any]] = None
    digest: str = ""
    error: str = ""


def send(client: Any, stack: str, params: Dict[str, Any], cold: bool) -> Request:
    """Submit, wait if not done, fetch the certificate; never raises."""
    from repro.serve.client import ServeError

    request = Request(job_label(stack, params), cold, time.monotonic())
    try:
        t0 = time.perf_counter()
        job = client.submit(stack, params)
        t1 = time.perf_counter()
        if job["state"] not in ("done", "failed", "rejected"):
            job = client.job(job["id"], wait=True, timeout_s=60.0)
        t2 = time.perf_counter()
        body = client.certificate(job["id"])
        t3 = time.perf_counter()
    except (ServeError, OSError, HTTPException, ValueError) as error:
        # non-2xx, 429, timeout, refused or torn connection, malformed body
        request.error = f"{type(error).__name__}: {error}"
        return request
    request.latency_s, request.submit_s = t3 - t0, t1 - t0
    request.wait_s, request.certificate_s = t2 - t1, t3 - t2
    request.job, request.digest = job, hashlib.sha256(body).hexdigest()
    if job["state"] != "done" or job.get("ok") is not True:
        request.error = f"job {job['id']} {job['state']} ok={job.get('ok')}"
    return request


def traffic(run: Run, client: Any) -> List[Request]:
    """Two closed-loop clients; 9 of 10 requests resubmit a prefilled job.

    Each never-seen job is bracketed by host reference loops in its own
    client thread; a warm request takes the reference nearest in time.
    """
    lock = threading.Lock()
    requests: List[Request] = []
    fresh = itertools.count()
    prefix = f"s{run.seed}x"
    started = time.monotonic()

    def enough() -> bool:
        cold = sum(r.cold for r in requests)
        return not run.sampling(min(cold, len(requests) - cold), started)

    def loop(index: int) -> None:
        rng = random.Random(f"{run.seed}/{index}")
        for count in itertools.count(rng.randrange(COLD_EVERY)):
            with lock:
                if enough():
                    return
                cold = count % COLD_EVERY == 0
                stack, params = (
                    ("ticket", {"lock": f"{prefix}{next(fresh)}"}) if cold
                    else rng.choice(WARM_JOBS)
                )
            if cold:
                request, _seconds, ref = bracketed(
                    run, lambda: send(client, stack, params, True)
                )
                request.ref = ref
            else:
                request = send(client, stack, params, False)
            with lock:
                requests.append(request)

    threads = [threading.Thread(target=loop, args=(i,)) for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    marks = [(r.started, r.ref) for r in requests if r.cold]
    for request in requests:
        if not request.cold and marks:
            request.ref = min(marks, key=lambda m: abs(m[0] - request.started))[1]
    return requests


def run_serve(run: Run) -> None:
    warm_digests = known("serve_mixed")
    setups: List[Tuple[float, float]] = []  # (unscaled, scaled) seconds
    rss: List[float] = []
    daemon = None
    try:
        for k in range(SETUP_REPEATS):
            # Boot, then each prefill job, timed between host references.
            daemon, seconds, ref = bracketed(
                run, lambda: Daemon(run, run.work / f"spool{k}")
            )
            steps = [(seconds, ref)]
            prefill = []
            for stack, params in WARM_JOBS:
                request, seconds, ref = bracketed(
                    run, lambda: send(daemon.client, stack, params, False)
                )
                prefill.append(request)
                steps.append((seconds, ref))
            setups.append((
                sum(seconds for seconds, _ref in steps),
                sum(scale(seconds, ref) for seconds, ref in steps),
            ))
            for request in prefill:
                run.check(
                    not request.error and request.digest == warm_digests[request.label],
                    f"prefill {request.label}: {request.error or request.digest}",
                )
            if k < SETUP_REPEATS - 1:
                rss.append(daemon.stop())
        requests = traffic(run, daemon.client)
        metrics = daemon.client.metrics()
    finally:
        if daemon is not None:
            rss.append(daemon.stop())

    for request in requests:
        expected = None if request.cold else warm_digests[request.label]
        run.check(
            not request.error and (request.cold or request.digest == expected),
            f"request {request.label}: {request.error or request.digest}",
        )
    good = [r for r in requests if not r.error]
    cold = [r for r in good if r.cold]
    warm = [r for r in good if not r.cold]
    # Served bytes of seed-chosen cold jobs against a command-line run.
    chosen = random.Random(run.seed).sample(cold, min(COLD_CHECKS, len(cold)))
    if chosen:
        jobs = [("ticket", r.job["params"]) for r in chosen]
        child = run.child({"mode": "stacks", "jobs": jobs})
        digests = child.document()["digests"] if child.code == 0 else []
        for request, digest in itertools.zip_longest(chosen, digests):
            run.check(
                request.digest == digest,
                f"served {request.label} differs from run_stack "
                f"({child.stderr[-500:]})",
            )

    latencies = [scale(r.latency_s, r.ref) for r in good]
    run.end_to_end.update(
        setup_s=median([scaled for _raw, scaled in setups]),
        latency_p50_s=median(latencies),
        verify_p50_s=median([scale(r.latency_s, r.ref) for r in cold]),
        # Closed loop without think time: clients / mean response time.
        throughput_per_s=CLIENTS / statistics.mean(latencies) if latencies else 0.0,
        peak_rss_mb=max(rss),
    )
    run.raw.update(
        setup_s=median([raw for raw, _scaled in setups]),
        latency_p50_s=median([r.latency_s for r in good]),
        verify_p50_s=median([r.latency_s for r in cold]),
    )
    warm_ms = statistics.quantiles([1000 * r.latency_s for r in warm], n=100)
    run.table.append(
        f"requests: {len(requests)} ({len(cold)} cold, {len(warm)} warm); "
        f"warm p50/p90/p99: {warm_ms[49]:.2f}/{warm_ms[89]:.2f}/{warm_ms[98]:.2f} ms"
    )
    if not run.trace:
        return
    total = sum(r.latency_s for r in good)
    server_warm_ms = metrics["latency"]["warm"]["p50_ms"] or 0.0
    lookups = metrics["cache"]["hits"] + metrics["cache"]["misses"]

    def cold_share(part: Callable[[Request], float]) -> float:
        return median([share(part(r), r.latency_s) for r in cold])

    run.per_layer.update({
        "serve.submit_pct": share(sum(r.submit_s for r in good), total),
        "serve.wait_pct": share(sum(r.wait_s for r in good), total),
        "serve.certificate_pct": share(sum(r.certificate_s for r in good), total),
        "serve.queue_wait_pct": cold_share(
            lambda r: r.job["started_at"] - r.job["submitted_at"]
        ),
        "serve.worker_pct": cold_share(lambda r: r.job["wall_s"]),
        "serve.server_warm_pct": share(server_warm_ms / 1000, median(
            [r.latency_s for r in warm]
        )),
        "serve.store.hit_ratio": metrics["cache"]["hits"] / lookups if lookups else 0.0,
        "trace.verify_p50_s": run.end_to_end["verify_p50_s"],
        "trace.outside_pct": 100.0,  # no boundary is wrapped in the daemon
        "trace_overhead": 0.0,
    })


# ---------------------------------------------------------------------------


def emit(run: Run) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if run.trace else spec["end_to_end"]
    values = run.end_to_end
    if run.trace:
        # A layer the workload never reaches reads 0.
        values = dict.fromkeys((m["name"] for m in wanted), 0.0)
        unknown = set(run.per_layer) - set(values)
        if unknown:
            raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
        values.update(run.per_layer)
        values["host_ref_s"] = median(run.host_ref)
    for line in run.table:
        print(line)
    if not run.trace:
        print(f"host_ref_s {median(run.host_ref):.6g} s (not gated)")
    metrics = {}
    for metric in wanted:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        raw = run.raw.get(metric["name"]) if not run.trace else None
        print(f"{metric['name']} {value:.6g} {metric['unit']}"
              + (f" (unscaled {raw:.6g})" if raw is not None else ""))
    for problem in run.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    correct = not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, run.attempted),
        "failed": len(run.problems),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC}/repro not found; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    compileall.compile_dir(str(SRC), quiet=1)
    SCRATCH.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    tempfile.tempdir = str(work)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    try:
        (run_serve if args.workload == "serve_mixed" else run_engine)(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return emit(run)


if __name__ == "__main__":
    sys.exit(main())
