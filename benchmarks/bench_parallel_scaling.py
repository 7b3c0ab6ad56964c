"""Parallel obligation checking + certificate cache: scaling study.

Runs the Fig. 5 lock pipeline (the engine's hottest end-to-end path)
under four configurations:

* ``serial cold``     — ``jobs=1``, cache off (the reference run)
* ``env jobs=2``      — ``REPRO_JOBS=2``, cache off.  The environment
  request is a *cap*, clamped to the hardware budget
  (:func:`repro.parallel.cpu_budget`): on a single-core runner the
  engine keeps the run serial instead of paying fork overhead for
  cores that do not exist, so this leg must never lose to serial.
* ``forced jobs=2``   — under ``repro.envflags.pinned(jobs=2)``: real
  fork-batch workers regardless of core count.  This measures the
  true process-boundary cost of the snapshot-fork engine (work-stealing
  chunks, batched result shipping); its speedup is core-count-dependent
  and only recorded.
* ``warm cache``      — ``jobs=1``, second run against a populated
  content-addressed certificate cache (the CompCertX
  separate-compilation analogue: unchanged inputs are not re-verified)

Besides wall times and speedups, the benchmark asserts the engine's
determinism contract: the soundness certificate's ``to_json()`` is
byte-identical across all four configurations (observability off).

Honesty note: ``cpus`` records the hardware budget actually visible to
the run (affinity-aware), and each phase records the worker count the
pool resolved, so a baseline from a 1-core container cannot be misread
as a scaling claim.
"""

from __future__ import annotations

import json
import os
import tempfile
import time

from conftest import print_table, record_bench
from bench_fig5_pipeline import run_pipeline

from repro.envflags import pinned
from repro.parallel import cpu_budget, get_jobs


def _run_once(
    env_jobs: str | None, cache_dir: str | None, pin_jobs: int | None = None
):
    """One pipeline run under explicit env, with ``pin_jobs`` workers
    pinned when given; returns (seconds, cert, workers)."""
    saved = {key: os.environ.get(key) for key in ("REPRO_JOBS", "REPRO_CACHE_DIR")}
    try:
        if env_jobs is None:
            os.environ.pop("REPRO_JOBS", None)
        else:
            os.environ["REPRO_JOBS"] = env_jobs
        if cache_dir is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = cache_dir
        with pinned(jobs=pin_jobs):
            workers = get_jobs()
            start = time.perf_counter()
            _stages, _stack, _queue, _compile_cert, soundness = run_pipeline()
            return time.perf_counter() - start, soundness, workers
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _cert_bytes(cert) -> bytes:
    return json.dumps(cert.to_json(), sort_keys=True, ensure_ascii=False).encode()


def test_parallel_scaling(benchmark):
    with tempfile.TemporaryDirectory(prefix="repro-cache-") as cache_dir:
        def all_phases():
            phases = []
            phases.append(("serial cold", *_run_once(None, None)))
            phases.append(("env jobs=2 (clamped)", *_run_once("2", None)))
            phases.append(("forced jobs=2", *_run_once(None, None, pin_jobs=2)))
            # Populate the cache, then measure the warm rerun.
            _run_once(None, cache_dir)
            phases.append(("warm cache", *_run_once(None, cache_dir)))
            return phases

        phases = benchmark.pedantic(all_phases, rounds=1, iterations=1)

    serial_s = phases[0][1]
    reference = _cert_bytes(phases[0][2])
    rows = []
    results = []
    for label, seconds, cert, workers in phases:
        speedup = serial_s / seconds if seconds > 0 else float("inf")
        rows.append(
            [label, f"{seconds * 1000:.1f} ms", f"{speedup:.2f}x", workers]
        )
        results.append(
            {"phase": label, "seconds": round(seconds, 6),
             "speedup": round(speedup, 3), "workers": workers}
        )
        assert _cert_bytes(cert) == reference, (
            f"{label}: certificate diverged from serial cold run"
        )
    from repro.obs.store import certificate_digest

    record_bench(
        phases=results,
        cpus=cpu_budget(),
        cpus_reported=os.cpu_count(),
        # One digest for all phases — the byte-identity assertion above
        # already proved serial/parallel/cached certs agree.
        certificate=certificate_digest(phases[0][2]),
    )
    print_table(
        "Parallel obligation checking + certificate cache (Fig. 5 pipeline)",
        ["configuration", "time", "speedup vs serial", "workers"],
        rows,
    )
    clamped = results[1]
    assert clamped["phase"] == "env jobs=2 (clamped)"
    # The hardware-aware clamp means an env jobs request can never make
    # a run *lose* to serial: on a 1-core box the leg degrades to the
    # serial path (workers=1), on a multi-core box real workers win.
    # 0.9 rather than 1.0 leaves room for timer noise between two runs
    # of identical code.
    assert clamped["speedup"] > 0.9, f"clamped env run lost to serial: {clamped}"
    warm = results[-1]
    assert warm["phase"] == "warm cache"
    # The cache must make the rerun clearly cheaper than re-verification;
    # parallel speedup is core-count-dependent and only *recorded*.
    assert warm["speedup"] > 2.0, f"warm-cache rerun too slow: {warm}"
