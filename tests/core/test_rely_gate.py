"""Rely-invalid environment runs stop at their last delivery.

``enumerate_local_runs`` decides a run's rely verdict when
:class:`ChoiceEnv` delivers the batch of its last choice and stops the
run there when the verdict is false.  The differential tests check
that this enumerates exactly what the enumerate-then-filter oracle
(``reference_local_runs.py``) does on the shipped stacks; the others
pin the stop itself and the runs that must keep the end-of-run check.
"""

from __future__ import annotations

import pytest

from repro.core import (
    ChoiceEnv,
    Event,
    LayerInterface,
    Rely,
    SimConfig,
    enumerate_local_runs,
    prim_player,
    shared_prim,
)
from repro.core import simulation
from repro.core.log import LogBuffer
from repro.obs.coverage import CoverageBuilder
from repro.obs.profile import RedundancyBuilder

from count_invariants import count_inv
from reference_local_runs import reference_local_runs

TAKE = (Event(2, "take"),)


def _enumerate(enumerator, interface, tid, player, args, config):
    """One enumerator's records, coverage and redundancy."""
    coverage = CoverageBuilder(
        "env_contexts", budget=config.max_runs, depth_bound=config.env_depth
    )
    redundancy = RedundancyBuilder("env_contexts")
    records = enumerator(
        interface, tid, player, args, config,
        coverage=coverage, redundancy=redundancy,
    )
    runs = [
        (r.choices, r.batches, r.run.log, r.run.ret, r.run.finished, r.run.stuck)
        for r in records
    ]
    return runs, coverage.as_dict(), redundancy.as_dict()


class TestMatchesReference:
    """Every obligation's enumeration, through both enumerators."""

    @pytest.fixture
    def compared(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("REPRO_JOBS", "1")
        gated = simulation.enumerate_local_runs
        seen = []

        def both(interface, tid, player, args, config,
                 coverage=None, redundancy=None):
            ours = _enumerate(gated, interface, tid, player, args, config)
            oracle = _enumerate(
                reference_local_runs, interface, tid, player, args, config
            )
            assert ours == oracle, (player, args)
            seen.append(oracle[1]["pruned"])
            return gated(
                interface, tid, player, args, config,
                coverage=coverage, redundancy=redundancy,
            )

        monkeypatch.setattr(simulation, "enumerate_local_runs", both)
        return seen

    @pytest.mark.parametrize("use_c_source", [True, False], ids=["c", "py"])
    def test_ticket_lock(self, compared, use_c_source):
        from repro.objects.ticket_lock import certify_ticket_lock

        stack = certify_ticket_lock([1, 2], lock="q0", use_c_source=use_c_source)
        assert stack.composed.certificate.ok
        # The ticket lock's invalid contexts are the ones the gate stops.
        assert sum(compared) > 0

    def test_mcs_lock(self, compared):
        from repro.objects.mcs_lock import certify_mcs_lock

        stack = certify_mcs_lock([1, 2], lock="q0")
        assert stack.composed.certificate.ok
        assert compared

    def test_shared_queue(self, compared):
        from repro.objects.shared_queue import certify_shared_queue

        result = certify_shared_queue([1, 2], queue="rdq")
        assert result["composed"].certificate.ok
        assert compared


def _turn_iface(resumptions):
    """``wait`` spins until no environment participant holds the turn.

    The rely forbids participant 2 from ever taking it, so a context
    that delivers ``take`` is invalid and the spin never ends.
    """

    def wait_spec(ctx):
        while True:
            ctx.consume_fuel()
            yield from ctx.query()
            resumptions.append(len(ctx.log))
            if ctx.log.count("take", tid=2) == 0:
                break
        ctx.emit("wait")

    rely = Rely({2: count_inv(
        "never_takes", "take", lambda count: count == 0, tid=2
    )})
    return LayerInterface(
        "Turn", (1, 2), {"wait": shared_prim("wait", wait_spec)}
    ).with_rely(rely)


class TestStopAtLastDelivery:
    def test_invalid_context_does_not_spin_to_fuel(self):
        resumptions = []
        iface = _turn_iface(resumptions)
        config = SimConfig(env_alphabet=[(), TAKE], env_depth=2, fuel=100_000)
        coverage = CoverageBuilder("env_contexts")
        records = enumerate_local_runs(
            iface, 1, prim_player("wait"), (), config, coverage=coverage
        )
        assert [r.choices for r in records] == [()]
        assert coverage.pruned == 1
        # Enumerate-then-filter spun 100,000 times under ``take``.
        assert len(resumptions) < 50

    def test_hook_runs_once_after_the_last_batch(self):
        seen = []
        env = ChoiceEnv([(), TAKE], (1, 0), on_last=seen.append)
        buffer = LogBuffer(())
        env.advance(buffer, 1)
        assert seen == []
        env.advance(buffer, 1)
        env.fresh().advance(buffer, 1)
        assert [list(log) for log in seen] == [list(TAKE)]

    def test_focused_tid_in_alphabet_keeps_end_of_run_check(self):
        """The focused participant's own ``bump`` after the last delivery
        breaks the rely; a verdict taken at the delivery would miss it."""

        def bump_spec(ctx):
            yield from ctx.query()
            ctx.emit("bump")
            return ctx.log.count("bump", tid=1)

        iface = LayerInterface(
            "Bump", (1, 2), {"bump": shared_prim("bump", bump_spec)}
        ).with_rely(Rely({1: count_inv(
            "bumps_once", "bump", lambda count: count <= 1, tid=1
        )}))
        config = SimConfig(env_alphabet=[(), (Event(1, "bump"),)], env_depth=1)
        coverage = CoverageBuilder("env_contexts")
        records = enumerate_local_runs(
            iface, 1, prim_player("bump"), (), config, coverage=coverage
        )
        assert [r.run.ret for r in records] == [1]
        assert coverage.pruned == 1
        oracle = reference_local_runs(iface, 1, prim_player("bump"), (), config)
        assert [r.choices for r in records] == [r.choices for r in oracle]
