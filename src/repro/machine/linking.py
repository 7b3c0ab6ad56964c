"""Multicore linking (paper Theorem 3.1).

``∀P, [[P]]_{Mx86} ⊑_R [[P]]_{Lx86[D]}``

"We can then prove a contextual refinement from Mx86 to Lx86[D] by
picking a suitable hardware scheduler of Lx86[D] for every interleaving
(or log) of Mx86."  Executably: enumerate the fine-grained hardware
behaviours and the query-point layer behaviours for the same client
program, and check that every completed hardware log has an identical
(scheduling-erased) layer log — the witness scheduler is exactly the
layer run that produced it.

This theorem "ensures that all code verification over Lx86[D] can be
propagated down to the x86 multicore hardware Mx86."
"""

from __future__ import annotations

import time
from typing import Any, Dict, Sequence, Tuple

from ..core.certificate import Certificate, stamp_provenance
from ..core.contextual import ClientProgram, check_refinement
from ..core.interface import LayerInterface
from ..core.machine import (
    ScriptScheduler,
    enumerate_game_logs,
    run_game,
    seq_player,
)
from ..core.relation import ID_REL, SimRel
from ..obs import obs_enabled, span
from ..obs.coverage import CoverageBuilder
from ..obs.metrics import MetricsWindow, inc
from .mx86 import mx86_behaviors


def check_multicore_linking(
    interface: LayerInterface,
    clients: Sequence[ClientProgram],
    relation: SimRel = ID_REL,
    fuel: int = 10_000,
    max_rounds: int = 64,
    max_runs: int = 200_000,
) -> Certificate:
    """Check Thm 3.1 for a family of client programs.

    For each client ``P``: ``[[P]]_{Mx86}`` (fine-grained interleaving)
    must refine ``[[P]]_{Lx86[D]}`` (query-point interleaving) under the
    identity relation — every hardware log is a layer log under some
    scheduler.
    """
    started = time.perf_counter()
    window = MetricsWindow()
    cert = Certificate(
        judgment=f"∀P, [[P]]_Mx86 ⊑_{relation.name} [[P]]_{interface.name}[D]",
        rule="MulticoreLinking",
        bounds={"clients": len(clients), "max_rounds": max_rounds},
    )
    behaviors = {"hw": 0, "layer": 0}
    track_cov = obs_enabled()
    outputs = []
    with span(
        "check_multicore_linking",
        interface=interface.name,
        clients=len(clients),
    ):
        for index, client in enumerate(clients):
            players = {
                tid: (seq_player(list(calls)), ()) for tid, calls in client.items()
            }
            with span("multicore_linking.client", client=index):
                cov_hw, cov_layer = (
                    (
                        CoverageBuilder(
                            "mx86.schedules", budget=max_runs,
                            depth_bound=max_rounds,
                        ),
                        CoverageBuilder(
                            "machine.schedules", budget=max_runs,
                            depth_bound=max_rounds,
                        ),
                    )
                    if track_cov else (None, None)
                )
                hw = mx86_behaviors(
                    interface, players, fuel=fuel, max_rounds=max_rounds,
                    max_runs=max_runs, coverage=cov_hw,
                )
                layer = enumerate_game_logs(
                    interface, players, fuel=fuel, max_rounds=max_rounds,
                    max_runs=max_runs, coverage=cov_layer,
                )
                if track_cov:
                    outputs.append(
                        {"coverage": {"mx86.schedules": cov_hw.record()}}
                    )
                    outputs.append(
                        {"coverage": {"machine.schedules": cov_layer.record()}}
                    )

                def rerun_hw(schedule, _players=players):
                    # The failing side of Thm 3.1 is the fine-grained
                    # hardware machine: replay it under one decision
                    # script so forensics can shrink the interleaving.
                    return run_game(
                        interface, _players, ScriptScheduler(schedule),
                        fuel=fuel, max_rounds=max_rounds, fine_grained=True,
                    )

                check_refinement(
                    hw, layer, relation, cert, label=f"P{index}",
                    rerun_low=rerun_hw,
                )
            behaviors["hw"] += len(hw)
            behaviors["layer"] += len(layer)
            inc("linking.hw_behaviors", len(hw))
            inc("linking.layer_behaviors", len(layer))
            cert.log_universe = cert.log_universe + tuple(
                r.log for r in hw if r.ok
            )
    stamp_provenance(
        cert, time.perf_counter() - started, window, outputs,
        clients=len(clients),
        hw_behaviors=behaviors["hw"],
        layer_behaviors=behaviors["layer"],
    )
    return cert
