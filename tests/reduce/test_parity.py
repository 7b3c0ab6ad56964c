"""Reduction must never change a verdict, a behavior, or a byte.

Three contracts:

* reduction on (``pinned(reduce=True)``) produces the same verdicts and
  the same failing behaviors (counterexample logs) as reduction off, on
  both forensics fixtures (the broken ticket lock and the non-atomic
  bump2);
* with reduction on, serial / 2-worker / warm-cache certificates are
  byte-identical;
* with reduction off no ``reduction`` provenance block appears anywhere
  in the tree.
"""

import hashlib
import json

import pytest

from repro import obs
from repro.core import (
    EventMapRel,
    FuncImpl,
    LayerInterface,
    SimConfig,
    check_soundness,
    fun_rule,
    pcomp,
    shared_prim,
)
from repro.core.calculus import module_rule
from repro.core.errors import VerificationError
from repro.core.events import ACQ, REL
from repro.core.module import Module
from repro.core.relation import ID_REL
from repro.machine.atomics import FAI
from repro.objects.ticket_lock import (
    acq_impl,
    lock_guarantee,
    lock_low_interface,
    lock_rely,
    lock_scenarios,
    low_env_alphabet,
    lx86_like_interface,
    n_cell,
)
from repro.envflags import pinned

REDUCE_ENV = "REPRO_REDUCE"

MODES = {"off": False, "dpor": True}


def cert_bytes(cert) -> bytes:
    return json.dumps(
        cert.to_json(), sort_keys=True, ensure_ascii=False
    ).encode()


def cx_logs(cert):
    """The failing behaviors: counterexample logs as (tid, name) tuples."""
    out = []
    for cx in cert.counterexamples():
        out.append(
            tuple(
                (e["tid"], e["name"]) if isinstance(e, dict) else (e.tid, e.name)
                for e in (cx.log or [])
            )
        )
    return sorted(out)


def broken_lock_certificate():
    """Fun* certificate of a ticket lock whose ``rel`` skips the push."""

    def broken_rel(ctx, lock):
        yield from ctx.call(FAI, n_cell(lock))
        return None

    domain, lock = [1, 2], "q0"
    base = lx86_like_interface(
        domain, 32, lock_rely(domain, [lock]), lock_guarantee(domain, [lock])
    )
    low = lock_low_interface(base)
    module = Module(
        {
            ACQ: FuncImpl(ACQ, acq_impl, lang="spec"),
            REL: FuncImpl(REL, broken_rel, lang="spec"),
        },
        name="M_broken_rel",
    )
    config = SimConfig(
        env_alphabet=low_env_alphabet([2], [lock]),
        env_depth=1,
        fuel=2_000,
        delivery="per_query",
    )
    with pytest.raises(VerificationError) as excinfo:
        module_rule(base, module, low, ID_REL, 1, lock_scenarios(lock, config))
    return excinfo.value.certificate


def bump_spec(ctx):
    yield from ctx.query()
    count = ctx.log.count("bump") + 1
    ctx.emit("bump", ret=count)
    return count


def bump2_spec(ctx):
    yield from ctx.query()
    count = ctx.log.count("bump")
    ctx.emit("bump", ret=count + 1)
    ctx.emit("bump", ret=count + 2)
    return None


def non_atomic_bump2_impl(ctx):
    # atomicity bug: the pair can be interleaved by the other participant
    yield from ctx.call("bump")
    yield from ctx.call("bump")
    return None


def atomic_bump2_impl(ctx):
    yield from ctx.call("bump")
    ctx.enter_critical()
    yield from ctx.call("bump")
    ctx.exit_critical()
    return None


def bump2_layer(impl):
    base = LayerInterface(
        "L0", [1, 2], {"bump": shared_prim("bump", bump_spec)}
    )
    overlay = base.extend(
        "L1", [shared_prim("bump2", bump2_spec)], hide=["bump"]
    )
    rel = EventMapRel("Rb", ret_rel=lambda lo, hi: True)
    config = SimConfig(env_alphabet=[()], env_depth=1, compare_rets=False)
    return pcomp(
        fun_rule(base, FuncImpl("bump2", impl), overlay, rel, 1, config),
        fun_rule(base, FuncImpl("bump2", impl), overlay, rel, 2, config),
    )


def soundness_certificate(impl=non_atomic_bump2_impl, jobs=None):
    layer = bump2_layer(impl)
    with pinned(jobs=jobs):
        return check_soundness(
            layer,
            clients=[{1: [("bump2", ())], 2: [("bump2", ())]}],
            max_rounds=24,
        )


class TestForensicsParity:
    @pytest.mark.parametrize("mode", list(MODES))
    def test_broken_lock_counterexamples_identical(self, mode, monkeypatch):
        monkeypatch.setenv(REDUCE_ENV, "off")
        baseline = broken_lock_certificate()
        with pinned(reduce=MODES[mode]):
            cert = broken_lock_certificate()
        assert cert.ok == baseline.ok is False
        # Env-choice schedules are untouched by machine-level reduction,
        # so the counterexamples match digest-for-digest.
        assert sorted(
            (cx.schedule, cx.digest()) for cx in cert.counterexamples()
        ) == sorted(
            (cx.schedule, cx.digest()) for cx in baseline.counterexamples()
        )

    @pytest.mark.parametrize("mode", list(MODES))
    def test_soundness_failing_behaviors_identical(self, mode, monkeypatch):
        monkeypatch.setenv(REDUCE_ENV, "off")
        baseline = soundness_certificate()
        with pinned(reduce=MODES[mode]):
            cert = soundness_certificate()
        assert cert.ok == baseline.ok is False
        # Machine reduction may pick a different representative schedule
        # for an equivalence class, but the failing behaviors (the logs)
        # and their count must be identical.
        assert len(cert.counterexamples()) == len(baseline.counterexamples())
        assert cx_logs(cert) == cx_logs(baseline)

    @pytest.mark.parametrize("mode", list(MODES))
    def test_soundness_passing_verdict_identical(self, mode):
        with pinned(reduce=MODES[mode]):
            cert = soundness_certificate(impl=atomic_bump2_impl)
        assert cert.ok


class TestByteParity:
    def test_serial_parallel_cached_identical_reduced(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.delenv(REDUCE_ENV, raising=False)  # reduction on
        serial = soundness_certificate(jobs=1)
        parallel = soundness_certificate(jobs=2)
        assert cert_bytes(parallel) == cert_bytes(serial)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cold = soundness_certificate()
        warm = soundness_certificate()
        assert cert_bytes(cold) == cert_bytes(serial)
        assert cert_bytes(warm) == cert_bytes(serial)

    def test_off_and_on_verdicts_agree(self, monkeypatch):
        monkeypatch.setenv(REDUCE_ENV, "off")
        off = soundness_certificate()
        monkeypatch.delenv(REDUCE_ENV, raising=False)
        on = soundness_certificate()
        assert off.ok == on.ok
        assert cx_logs(off) == cx_logs(on)


class TestProvenanceGating:
    def _reduction_blocks(self, cert):
        blocks = []

        def walk(node):
            block = (node.provenance or {}).get("reduction")
            if block:
                blocks.append(block)
            for child in node.children:
                walk(child)

        walk(cert)
        return blocks

    def test_reduction_off_adds_no_provenance(self, monkeypatch):
        monkeypatch.setenv(REDUCE_ENV, "off")
        obs.enable()
        try:
            cert = soundness_certificate(impl=atomic_bump2_impl)
        finally:
            obs.disable()
        assert self._reduction_blocks(cert) == []

    def test_reduction_on_records_provenance(self, monkeypatch):
        monkeypatch.delenv(REDUCE_ENV, raising=False)
        obs.enable()
        try:
            cert = soundness_certificate(impl=atomic_bump2_impl)
        finally:
            obs.disable()
        blocks = self._reduction_blocks(cert)
        assert blocks, "reduced run produced no reduction provenance"
        assert any(block["pruned"].get("dpor") for block in blocks)


#: SHA-256 of each certificate's ``canonical_bytes()`` with
#: ``REPRO_REDUCE=off``, as the seed prefix-replay DFS
#: (``reference_dpor._explore_prefixes``) produced them.  The one game
#: enumerator with no axis active must reproduce them byte for byte.
OFF_DIGESTS = {
    "ticket_stack":
        "2d71899b40b79e4de34fe445cf391a8b3e080695f0f2901b94d6e66dfe947a27",
    "ticket_soundness":
        "2c5b92809ecdef63af4713cfb8594f20321ce93c2c73fdf080bf257cf4fd6743",
    "broken_lock":
        "3282a9c9fe1772fe364ee41a2a16d297b690d8f2675a275b7045b82c6c4771ae",
    "bump2_soundness":
        "0cf86ebc2ac43014c3c738638d1e422888aac92b6f5b2a7aa3ae43607254efb2",
}


@pytest.mark.usefixtures("obs_off")
class TestReductionOffBytes:
    @pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "jobs2"])
    def test_certificates_match_the_seed_enumerator(self, jobs, monkeypatch):
        from repro.objects.ticket_lock import certify_ticket_lock

        monkeypatch.setenv(REDUCE_ENV, "off")
        with pinned(jobs=jobs):
            stack = certify_ticket_lock([1, 2], lock="q0")
            client = {
                tid: [("acq", ("q0",)), ("rel", ("q0",))] for tid in (1, 2)
            }
            certificates = {
                "ticket_stack": stack.composed.certificate,
                "ticket_soundness": check_soundness(
                    stack.composed, clients=[client], max_rounds=14,
                    require_progress=False,
                ),
                "broken_lock": broken_lock_certificate(),
                "bump2_soundness": soundness_certificate(),
            }
        digests = {
            name: hashlib.sha256(cert.canonical_bytes()).hexdigest()
            for name, cert in certificates.items()
        }
        assert digests == OFF_DIGESTS
