"""Self-test of the benchmark harness (a few minutes):

    pytest perfbench/test_benchmark.py

The tier-1 suite does not collect it (its ``testpaths`` is ``tests``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: The workload on which each boundary must be reached.
DOMINANT = {
    "objects.ticket_lock.certify_ticket_lock": "fig5_cold",
    "objects.mcs_lock.certify_mcs_lock": "table2_cold",
    "objects.shared_queue.certify_shared_queue": "table2_cold",
    "objects.qlock.check_qlock_correctness": "table2_cold",
    "core.replay.ReplayFn.__call__": "fig5_cold",
    "objects.ticket_lock.replay_ticket": "fig5_cold",
    "objects.shared_queue.replay_shared_queue": "table2_cold",
    "objects.qlock.replay_qlock_busy": "table2_cold",
    "clight.semantics.Interp.run_function": "table2_cold",
    "asm.semantics.AsmInterp.run_function": "fig5_cold",
    "core.machine.enumerate_game_logs": "table2_cold",
    "core.machine.run_game": "table2_cold",
    "reduce.dpor.ReducingScheduler.pick": "table2_cold",
    "reduce.fingerprint.state_fingerprint": "table2_cold",
    "core.calculus.module_rule": "fig5_cold",
    "core.calculus.interface_sim_rule": "fig5_cold",
    "core.calculus.check_compat_interfaces": "fig5_cold",
    "core.simulation.check_scenarios": "fig5_cold",
    "core.simulation.check_sim": "fig5_cold",
    "core.contextual.check_soundness": "fig5_cold",
    "analysis.linter.lint_rule_inputs": "fig5_cold",
    "compiler.validate.compile_and_validate": "fig5_cold",
    "parallel.cache.cached_certificate": "incremental_edit",
    "parallel.cache.cached_obligation": "incremental_edit",
    "parallel.cache.cached_obligation_payload": "fig5_cold",
    "parallel.canonical.canonical_fingerprint": "incremental_edit",
    "analysis.deps.dependency_closure": "incremental_edit",
    "analysis.slices.scenario_obligation_key": "incremental_edit",
    "core.certificate.Certificate.to_json": "fig5_cold",
}


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.fixture
def active_tracer(monkeypatch):
    recorder = tracer.Tracer()
    monkeypatch.setattr(tracer, "_ACTIVE", recorder)
    return recorder


def test_every_boundary_is_listed_once():
    names = [tracer.boundary_name(m, q) for m, q in tracer.BOUNDARIES]
    assert sorted(names) == sorted(DOMINANT)


def test_generator_wrapper_forwards_send_throw_and_return(active_tracer):
    closed = []

    def echo():
        received = []
        try:
            while True:
                received.append((yield len(received)))
        except KeyError:
            yield "caught"
        finally:
            closed.append(True)
        return received

    wrapped = tracer.wrap("echo", echo)
    generator = wrapped()
    assert next(generator) == 0
    assert generator.send("a") == 1
    assert generator.throw(KeyError()) == "caught"
    with pytest.raises(StopIteration) as stop:
        next(generator)
    assert stop.value.value == ["a"]
    assert active_tracer.stats["echo"][0] == 4  # one span per resumption

    def delegate():
        return (yield from wrapped())

    generator = delegate()
    next(generator)
    generator.close()
    assert closed == [True, True]


def test_self_time_excludes_nested_spans(active_tracer):
    inner = tracer.wrap("inner", lambda: sum(range(100_000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    calls, total, own = active_tracer.stats["outer"]
    assert calls == 1
    assert own < total
    assert own + active_tracer.stats["inner"][2] == pytest.approx(total)
    assert [span[3] for span in active_tracer.spans] == [-1, 0, 0]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_run_checks_outputs_and_emits_every_metric(workload, trace):
    done = run_benchmark(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(value > 0 for value in metrics.values())
        return
    for boundary, dominant in DOMINANT.items():
        if dominant == workload:
            assert metrics[boundary + ".calls"] > 0, boundary
    if workload == "incremental_edit":
        # Traced samples passed the same 2 reused / 4 re-checked check.
        assert metrics["parallel.cache.reuse_ratio"] == pytest.approx(2 / 6)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("scratch", "__pycache__"),
    )
    done = run_benchmark(tmp_path, "fig5_cold", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
