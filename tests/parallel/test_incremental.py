"""Obligation-granular incremental re-verification.

Three contracts over the per-slice cache (:mod:`repro.analysis.slices`
keys, ``cached_obligation*`` entries):

* *edit-one-primitive*: after editing one function's bytecode, a re-run
  re-checks only the obligations whose dependency slice contains it —
  everything else reloads warm;
* *cross-process key stability*: slice fingerprints are a function of
  the code, not the process (stable under different hash seeds);
* *five-mode byte identity*: serial cold / parallel / rule-cached /
  obligation-assembled / served runs produce identical certificate
  bytes on the ticket and MCS stacks.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro.objects.ticket_lock as tl
from repro.envflags import pinned
from repro.objects.ticket_lock import FAI, PUSH, n_cell
from repro.parallel.cache import incremental_collector


def rel_impl_edited(ctx, lock):
    """Bytecode-different, semantically identical ``rel``."""
    yield from ctx.call(PUSH, lock)
    yield from ctx.call(FAI, n_cell(lock))
    _edited = True
    return None


@pytest.fixture()
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    return tmp_path


class TestEditOnePrimitive:
    def test_only_changed_slices_recheck(self, cache, monkeypatch):
        with incremental_collector() as cold:
            before = tl.certify_ticket_lock([0, 1], use_c_source=False)
        # Cold run: every obligation is checked and stored, all slices
        # exact (the spec impls resolve fully).
        assert cold == {"reused": 0, "rechecked": 12, "slice_misses": 0}

        monkeypatch.setattr(tl, "rel_impl", rel_impl_edited)
        with incremental_collector() as warm:
            after = tl.certify_ticket_lock([0, 1], use_c_source=False)
        # The log-lift interface sims hit at rule level (no module in
        # their inputs).  Of the six Fun* scenario obligations, the two
        # acq-only scenarios reuse; the four containing rel re-check.
        assert warm["reused"] == 2
        assert warm["rechecked"] == 4
        assert warm["slice_misses"] == 0
        assert before.composed.certificate.ok
        assert after.composed.certificate.ok

    def test_unedited_rerun_is_fully_warm(self, cache):
        tl.certify_ticket_lock([0, 1], use_c_source=False)
        with incremental_collector() as warm:
            tl.certify_ticket_lock([0, 1], use_c_source=False)
        # Rule-level hits mean the obligation layer is never consulted.
        assert warm == {"reused": 0, "rechecked": 0, "slice_misses": 0}

    @pytest.mark.usefixtures("obs_off")
    def test_edited_bytes_match_edited_cold_run(
        self, cache, monkeypatch, tmp_path
    ):
        tl.certify_ticket_lock([0, 1], use_c_source=False)
        monkeypatch.setattr(tl, "rel_impl", rel_impl_edited)
        incremental = tl.certify_ticket_lock([0, 1], use_c_source=False)
        fresh = tmp_path / "fresh"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(fresh))
        cold = tl.certify_ticket_lock([0, 1], use_c_source=False)
        assert (
            incremental.composed.certificate.to_json()
            == cold.composed.certificate.to_json()
        )


_KEY_SNIPPET = """
import json, sys
from repro.analysis.slices import client_obligation_key
from repro.objects.ticket_lock import certify_ticket_lock
from repro.parallel.cache import cache_key

stack = certify_ticket_lock([0, 1], use_c_source=False)
layer = stack.composed
client = {0: (("acq", ("L",)), ("rel", ("L",))), 1: (("acq", ("L",)),)}
parts, exact = client_obligation_key(
    underlay=layer.underlay, module=layer.module, overlay=layer.overlay,
    relation=layer.relation, client=client, fuel=100, max_rounds=8,
    max_runs=1000, require_progress=False, reduce=True,
)
print(json.dumps({"exact": exact, "key": cache_key("obligation:x", parts)}))
"""


class TestWorkerCountsReachTheParent:
    CLIENTS = [
        {0: [("acq", ("L",)), ("rel", ("L",))], 1: [("acq", ("L",))]},
        {0: [("acq", ("L",))], 1: [("acq", ("L",)), ("rel", ("L",))]},
    ]

    def _counts(self, tmp_path, monkeypatch, jobs):
        from repro.core import check_soundness

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / f"jobs{jobs}"))
        layer = tl.certify_ticket_lock([0, 1], use_c_source=False).composed
        with incremental_collector() as counts, pinned(jobs=jobs):
            check_soundness(
                layer, clients=self.CLIENTS, max_rounds=12,
                require_progress=False,
            )
        return counts

    def test_parallel_counts_equal_serial(self, cache, tmp_path, monkeypatch):
        serial = self._counts(tmp_path, monkeypatch, jobs=1)
        assert serial == {"reused": 0, "rechecked": 2, "slice_misses": 0}
        assert self._counts(tmp_path, monkeypatch, jobs=2) == serial

    def test_reduction_tallies_equal_serial(self, monkeypatch):
        from repro.core import check_soundness
        from repro.obs.blocks import tallies

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("REPRO_REDUCE", "on")
        layer = tl.certify_ticket_lock([0, 1], use_c_source=False).composed

        def cuts(jobs):
            # The game's schedules are chunked across workers, whose
            # pruning tallies must reach this scope.
            with tallies("dpor", "sleep") as outer, pinned(jobs=jobs):
                check_soundness(
                    layer, clients=self.CLIENTS, max_rounds=12,
                    require_progress=False,
                )
            return outer

        serial = cuts(1)
        # Pruned branches and the participants sleep sets kept out of
        # branching are both tallied.
        assert serial["dpor"]
        assert serial["sleep"]
        assert cuts(2) == serial


class TestCrossProcessStability:
    def test_slice_fingerprints_survive_hash_seeds(self, tmp_path):
        outputs = []
        for seed in ("1", "31337"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            env["PYTHONPATH"] = "src"
            env.pop("REPRO_CACHE_DIR", None)
            env.pop("REPRO_CACHE", None)
            proc = subprocess.run(
                [sys.executable, "-c", _KEY_SNIPPET],
                capture_output=True, text=True, env=env, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(json.loads(proc.stdout))
        assert outputs[0] == outputs[1]
        assert outputs[0]["exact"] is True


class TestFiveModeByteIdentity:
    @pytest.mark.parametrize("stack", ["ticket", "mcs"])
    @pytest.mark.usefixtures("obs_off")
    def test_modes_agree(self, stack, tmp_path, monkeypatch):
        from repro.serve.protocol import execute_job, run_stack, result_bytes

        params = {"domain": [1, 2]}

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        serial = result_bytes(run_stack(stack, params))

        monkeypatch.setenv("REPRO_JOBS", "2")
        parallel = result_bytes(run_stack(stack, params))
        monkeypatch.delenv("REPRO_JOBS")

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cached_cold = result_bytes(run_stack(stack, params))
        cached_warm = result_bytes(run_stack(stack, params))

        # Obligation-assembled: force a rule-level miss while the
        # per-obligation entries stay warm, so the certificate is
        # reassembled from slices instead of reloaded whole.
        import repro.core.calculus as calculus
        import repro.core.contextual as contextual

        def rule_miss(kind, parts, compute):
            return compute()

        monkeypatch.setattr(calculus, "cached_certificate", rule_miss)
        monkeypatch.setattr(contextual, "cached_certificate", rule_miss)
        with incremental_collector() as counts:
            assembled = result_bytes(run_stack(stack, params))
        monkeypatch.undo()
        assert counts["reused"] > 0, "assembly never touched warm entries"

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        payload = execute_job({"stack": stack, "params": params})
        served = payload["bytes"]

        assert parallel == serial
        assert cached_cold == serial
        assert cached_warm == serial
        assert assembled == serial
        assert served == serial
