"""The enumerate-then-filter environment enumerator, kept as a test oracle.

:func:`reference_local_runs` is :func:`repro.core.simulation.enumerate_local_runs`
as it was before rely-invalid runs were stopped at their last delivery,
verbatim: every env-choice run goes to its end (a spin loop whose turn
never comes spins until the fuel runs out), and only then is the run
dropped when :func:`~repro.core.simulation.env_events_valid` rejects its
environment events.  ``tests/core/test_rely_gate.py`` checks that
the gated enumerator records exactly the runs, coverage and redundancy
this one does.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Set, Tuple

from repro.core.environment import ChoiceEnv, RecordingEnv
from repro.core.errors import OutOfFuel
from repro.core.interface import LayerInterface
from repro.core.machine import run_local
from repro.core.simulation import RunRecord, SimConfig, env_events_valid
from repro.obs import obs_enabled
from repro.obs.coverage import CoverageBuilder
from repro.obs.heartbeat import heartbeat
from repro.obs.metrics import inc
from repro.obs.profile import (
    RedundancyBuilder,
    profile_enabled,
    profile_span,
    state_fingerprint,
)


def reference_local_runs(
    interface: LayerInterface,
    tid: int,
    player: Callable,
    args: Tuple[Any, ...],
    config: SimConfig,
    coverage: Optional[CoverageBuilder] = None,
    redundancy: Optional[RedundancyBuilder] = None,
) -> List[RunRecord]:
    """All runs of ``player`` under environment behaviours to the bound.

    DFS over :class:`ChoiceEnv` choice prefixes.  A run whose environment
    went idle after the prefix is recorded; if the player queried past the
    prefix and the depth bound allows, the prefix branches over the whole
    alphabet.  Runs whose delivered environment events violate the rely
    condition are pruned together with all their extensions.
    """
    rely = interface.rely
    env_tids = {e.tid for batch in config.env_alphabet for e in batch}
    results: List[RunRecord] = []
    stack: List[Tuple[int, ...]] = [()]
    runs = 0
    seen: Set[Tuple[Any, ...]] = set()
    tracking = obs_enabled()
    own_redundancy = False
    if redundancy is None and profile_enabled():
        redundancy = RedundancyBuilder("env_contexts")
        own_redundancy = True
    with profile_span("enumerate_local_runs"):
        while stack:
            choices = stack.pop()
            runs += 1
            heartbeat("sim.env_contexts", explored=runs, budget=config.max_runs)
            if runs > config.max_runs:
                if coverage is not None:
                    coverage.exhausted = False
                raise OutOfFuel(
                    f"simulation enumeration exceeded {config.max_runs} runs"
                )
            env = RecordingEnv(ChoiceEnv(config.env_alphabet, choices))
            run = run_local(
                interface, tid, player, args, env=env, fuel=config.fuel
            )
            if run.queries < len(choices):
                # This prefix is longer than the player's query sequence
                # under it; it denotes no new behaviour (already covered by
                # the shorter prefix).  Skip without branching.
                if redundancy is not None:
                    redundancy.visit(replay=True)
                continue
            if coverage is not None:
                coverage.visit(depth=len(choices))
            key = (run.log, repr(run.ret), run.finished, run.stuck)
            if redundancy is not None:
                redundancy.visit(state_fingerprint(*key))
            if config.check_rely and not env_events_valid(
                run.log, rely, env_tids
            ):
                if tracking:
                    inc("sim.env_contexts_rely_pruned")
                if coverage is not None:
                    coverage.prune()
                continue
            if key not in seen:
                seen.add(key)
                results.append(
                    RunRecord(choices, tuple(env.batches), run)
                )
            if run.queries > len(choices) and len(choices) < config.env_depth:
                if redundancy is not None:
                    redundancy.branch(len(config.env_alphabet))
                for index in range(len(config.env_alphabet)):
                    stack.append(choices + (index,))
    if tracking:
        inc("sim.runs_enumerated", runs)
        inc("sim.env_contexts", len(results))
    if coverage is not None:
        coverage.distinct = (coverage.distinct or 0) + len(results)
    if own_redundancy:
        redundancy.record()
    return results
