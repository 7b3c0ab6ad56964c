"""Contextual refinement and the soundness theorem (Thm 2.2).

``L'[D] ⊢_R M : L[D]  ⟹  ∀P, [[P ⊕ M]]_{L'[D]} ⊑_R [[P]]_{L[D]}``

A certified layer behaves "like a certified compiler, converting any safe
client program P running on top of L into one that has the same behavior
but runs on top of L'" (§2).  The checker computes both behaviour sets by
exhaustive bounded scheduler enumeration (:func:`enumerate_game_logs`)
and verifies that every completed low-level log has an R-related
completed high-level log — the termination-sensitive refinement the paper
insists on (a diverging or stuck low-level run with no high-level
counterpart is a failure, not a vacuous success).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..envflags import pinned
from ..obs import obs_enabled, span
from ..obs.blocks import fold_blocks, tallies
from ..obs.coverage import CoverageBuilder
from ..obs.forensics import MAX_COUNTEREXAMPLES, build_counterexample
from ..obs.metrics import MetricsWindow, inc
from ..obs.profile import (
    RedundancyBuilder,
    merge_redundancy,
    profile_enabled,
    profile_span,
)
from ..parallel.cache import (
    cache_enabled,
    cached_certificate,
    cached_obligation_payload,
)
from ..parallel.pool import get_jobs, parallel_map
from .certificate import Certificate, CertifiedLayer, stamp_provenance
from .errors import ComposeError
from .interface import LayerInterface
from .log import Log
from .machine import (
    GameResult,
    ScriptScheduler,
    enumerate_game_logs,
    run_game,
    seq_player,
)
from .module import Module, link
from .relation import SimRel

ClientProgram = Dict[int, Sequence[Tuple[str, Tuple[Any, ...]]]]
"""A client program ``P``: per participant, a sequence of primitive calls
(the shape of Fig. 3's ``T1(){ foo(); }  T2(){ foo(); }``)."""


def behaviors_of(
    interface: LayerInterface,
    client: ClientProgram,
    module: Optional[Module] = None,
    fuel: int = 10_000,
    max_rounds: int = 64,
    max_runs: int = 100_000,
    coverage: Optional[CoverageBuilder] = None,
    redundancy: Optional[RedundancyBuilder] = None,
) -> List[GameResult]:
    """``[[P ⊕ M]]_{L[D]}`` (or ``[[P]]_{L[D]}`` when ``module`` is None).

    Links the module's functions into the interface, instantiates each
    participant's call sequence as a player, and enumerates every bounded
    scheduling of the game (splitting the scheduler tree across the
    pool's workers — see :func:`enumerate_game_logs`).
    """
    machine = link(interface, module) if module and len(module) else interface
    players = {
        tid: (seq_player(list(calls)), ())
        for tid, calls in client.items()
    }
    with span(
        "behaviors_of",
        interface=interface.name,
        linked=module.name if module and len(module) else None,
        participants=len(players),
    ):
        results = enumerate_game_logs(
            machine, players, fuel=fuel, max_rounds=max_rounds,
            max_runs=max_runs, coverage=coverage, redundancy=redundancy,
        )
    inc("contextual.behaviors_enumerated", len(results))
    return results


def game_rerun(
    interface: LayerInterface,
    client: ClientProgram,
    module: Optional[Module] = None,
    fuel: int = 10_000,
    max_rounds: int = 64,
) -> Callable[[Sequence[int]], GameResult]:
    """A forensic replay callable: one game under one decision script.

    The returned ``rerun(schedule)`` re-executes exactly what
    :func:`behaviors_of` runs for that scheduling prefix.  It raises
    :class:`~repro.core.machine.NeedChoice` when the script is too short
    to denote a complete run — the shrinker treats that as "does not
    reproduce".
    """
    machine = link(interface, module) if module and len(module) else interface
    players = {
        tid: (seq_player(list(calls)), ())
        for tid, calls in client.items()
    }

    def rerun(schedule):
        return run_game(
            machine, players, ScriptScheduler(schedule),
            fuel=fuel, max_rounds=max_rounds,
        )

    return rerun


def check_refinement(
    low_results: Iterable[GameResult],
    high_results: Iterable[GameResult],
    relation: SimRel,
    cert: Certificate,
    label: str = "",
    require_progress: bool = True,
    rerun_low: Optional[Callable[[Sequence[int]], GameResult]] = None,
) -> None:
    """Check ``behaviors_low ⊑_R behaviors_high`` and record obligations.

    For every completed low-level log there must exist a completed
    high-level log related by ``R`` (scheduling events are erased on both
    sides before relating, since the two layers run under different
    schedulers — §2's "this interleaving can be captured by a higher-level
    scheduler").  With ``require_progress`` every low run must also have
    completed — stuck or diverging runs fail the termination-sensitive
    property.

    ``rerun_low`` (see :func:`game_rerun`) enables forensics: failed
    obligations get a delta-debugged :class:`Counterexample` whose
    scheduler-decision script is minimized while the same failure —
    no-progress, or no R-related high log — keeps reproducing.

    Witness searches are shared between low runs whose sched-erased logs
    are identical: the relation is a function of the erased log, so the
    first search's verdict stands for all of them.  The obligations and
    counters are those of one search per run; only the repeated
    ``relate_logs`` scans are skipped.
    """
    low_results = list(low_results)
    high_logs = [r.log.without_sched() for r in high_results if r.ok]
    matched = 0
    captured = 0
    witness_memo: Dict[Log, Optional[Log]] = {}

    def capture(failure, obligation, status, result):
        nonlocal captured
        if captured >= MAX_COUNTEREXAMPLES:
            return None
        captured += 1
        still_fails = None
        artifacts = None
        if rerun_low is not None:
            def still_fails(schedule):
                replay = rerun_low(schedule)
                if failure == "progress":
                    return not replay.ok
                if not replay.ok:
                    return False
                replay_log = replay.log.without_sched()
                return not any(
                    relation.relate_logs(replay_log, hl) for hl in high_logs
                )

            def artifacts(schedule):
                replay = rerun_low(schedule)
                if failure == "progress":
                    return {
                        "log": tuple(replay.log),
                        "status": replay.stuck or "diverged at round bound",
                    }
                return {
                    "log": tuple(replay.log.without_sched()),
                    "status": (
                        f"no R-related high log among {len(high_logs)}"
                    ),
                }

        counterexample = build_counterexample(
            kind="refinement",
            judgment=cert.judgment,
            obligation=obligation,
            status=status,
            schedule=result.schedule,
            still_fails=still_fails,
            artifacts=artifacts,
            schedule_kind="sched_decisions",
            log=tuple(
                result.log if failure == "progress"
                else result.log.without_sched()
            ),
        )
        return {"counterexample": counterexample}

    for result in low_results:
        if not result.ok:
            if require_progress:
                desc = f"low run completes {label}[sched={result.schedule}]"
                details = result.stuck or "diverged at round bound"
                cert.add(
                    desc, False, details,
                    evidence=capture("progress", desc, details, result),
                )
            continue
        low_log = result.log.without_sched()
        if low_log in witness_memo:
            witness = witness_memo[low_log]
        else:
            witness = witness_memo[low_log] = next(
                (hl for hl in high_logs if relation.relate_logs(low_log, hl)),
                None,
            )
        if witness is None:
            inc("contextual.low_logs_unmatched")
            desc = f"low log has high witness {label}[sched={result.schedule}]"
            details = f"unmatched: {low_log!r}"
            cert.add(
                desc, False, details,
                evidence=capture("unmatched", desc, details, result),
            )
        else:
            matched += 1
            inc("contextual.low_logs_matched")
    cert.add(
        f"refinement {label}: {matched} low logs matched against "
        f"{len(high_logs)} high logs",
        True,
    )


def check_soundness(
    layer: CertifiedLayer,
    clients: Sequence[ClientProgram],
    fuel: int = 10_000,
    max_rounds: int = 64,
    max_runs: int = 100_000,
    require_progress: bool = True,
) -> Certificate:
    """Thm 2.2: contextual refinement for a family of client programs.

    For each client ``P``: compute ``[[P ⊕ M]]_{L'[D]}`` and
    ``[[P]]_{L[D]}`` and check the former refines the latter through the
    layer's relation.  Clients must only exercise the certified focused
    set (participants outside ``layer.focused`` would not be covered by
    the premise).

    With more than one worker (``REPRO_JOBS``) clients are checked in
    worker processes and their obligations merged in client order; with
    a single client the workers split the scheduler tree instead.  The
    whole judgment is memoized in the content-addressed certificate
    cache when enabled — keyed by the layer's interfaces, module,
    relation, premise certificate, the clients, the bounds and whether
    reduction ran (``REPRO_REDUCE``, see :mod:`repro.reduce`).
    """
    for index, client in enumerate(clients):
        extra = set(client) - set(layer.focused)
        if extra:
            raise ComposeError(
                f"client {index} uses uncertified participants {sorted(extra)}"
            )
    with pinned() as config:
        client_key = None
        if cache_enabled():
            from ..analysis.slices import client_obligation_key

            def client_key(client: ClientProgram) -> Any:
                return client_obligation_key(
                    underlay=layer.underlay,
                    module=layer.module,
                    overlay=layer.overlay,
                    relation=layer.relation,
                    client=client,
                    fuel=fuel,
                    max_rounds=max_rounds,
                    max_runs=max_runs,
                    require_progress=require_progress,
                    reduce=config.reduce,
                )

        def compute() -> Certificate:
            return _check_soundness_uncached(
                layer, clients, fuel, max_rounds, max_runs, require_progress,
                obligation_key=client_key,
            )

        return cached_certificate(
            "Soundness",
            (
                layer.underlay, layer.module, layer.overlay, layer.relation,
                tuple(sorted(layer.focused)), layer.certificate,
                tuple(clients), fuel, max_rounds, max_runs, require_progress,
                ("reduce", config.reduce),
            ),
            compute,
        )


def _check_soundness_uncached(
    layer: CertifiedLayer,
    clients: Sequence[ClientProgram],
    fuel: int,
    max_rounds: int,
    max_runs: int,
    require_progress: bool,
    obligation_key: Optional[Any] = None,
) -> Certificate:
    started = time.perf_counter()
    window = MetricsWindow()
    cert = Certificate(
        judgment=f"∀P, [[P ⊕ {layer.module.name}]]_{layer.underlay.name} "
        f"⊑_{layer.relation.name} [[P]]_{layer.overlay.name}",
        rule="Soundness",
        bounds={
            "clients": len(clients),
            "max_rounds": max_rounds,
            "fuel": fuel,
        },
        children=[layer.certificate],
    )
    behaviors = {"low": 0, "high": 0}

    def check_client(item) -> Dict[str, Any]:
        index, client = item
        track_cov = obs_enabled()
        prof = profile_enabled()
        t_obligation = time.perf_counter() if prof else 0.0
        red_low, red_high = (
            (
                RedundancyBuilder("machine.schedules"),
                RedundancyBuilder("machine.schedules"),
            )
            if prof else (None, None)
        )
        with span("soundness.client", client=index), \
                tallies("dpor", "sleep") as cuts, \
                profile_span(f"obligation[P{index}]"):
            cov_low, cov_high = (
                (
                    CoverageBuilder(
                        "machine.schedules", budget=max_runs,
                        depth_bound=max_rounds,
                    ),
                    CoverageBuilder(
                        "machine.schedules", budget=max_runs,
                        depth_bound=max_rounds,
                    ),
                )
                if track_cov else (None, None)
            )
            low = behaviors_of(
                layer.underlay, client, layer.module,
                fuel=fuel, max_rounds=max_rounds, max_runs=max_runs,
                coverage=cov_low, redundancy=red_low,
            )
            high = behaviors_of(
                layer.overlay, client, None,
                fuel=fuel, max_rounds=max_rounds, max_runs=max_runs,
                coverage=cov_high, redundancy=red_high,
            )
            # Obligations land in a shadow certificate with the same
            # judgment (counterexamples embed it); the parent splices
            # them into the real certificate in client order.
            shadow = Certificate(judgment=cert.judgment, rule=cert.rule)
            check_refinement(
                low, high, layer.relation, shadow,
                label=f"P{index}", require_progress=require_progress,
                rerun_low=game_rerun(
                    layer.underlay, client, layer.module,
                    fuel=fuel, max_rounds=max_rounds,
                ),
            )
        output = {
            "obligations": shadow.obligations,
            "low": len(low),
            "high": len(high),
            "logs": tuple(r.log for r in low) + tuple(r.log for r in high),
            "reduction": {"pruned": cuts},
        }
        if track_cov:
            output.update(fold_blocks([
                {"coverage": {"machine.schedules": cov_low.record()}},
                {"coverage": {"machine.schedules": cov_high.record()}},
            ]))
        if prof:
            output["profile"] = {
                "obligation": f"P{index}",
                "wall_us": int((time.perf_counter() - t_obligation) * 1e6),
                "states": red_low.explored + red_high.explored,
                "redundancy": merge_redundancy(
                    [red_low.record(), red_high.record()]
                ),
            }
        return output

    def checked_client(item) -> Dict[str, Any]:
        _index, client = item
        key = obligation_key(client) if obligation_key is not None else None
        return cached_obligation_payload(
            "soundness-client", key, lambda: check_client(item),
            ("obligations", "low", "high", "logs"),
        )

    with span("check_soundness", module=layer.module.name, clients=len(clients)):
        outputs = parallel_map(checked_client, list(enumerate(clients)))
        for output in outputs:
            cert.obligations.extend(output["obligations"])
            behaviors["low"] += output["low"]
            behaviors["high"] += output["high"]
            cert.log_universe = cert.log_universe + output["logs"]
    stamp_provenance(
        cert, time.perf_counter() - started, window, outputs,
        clients=len(clients),
        low_behaviors=behaviors["low"],
        high_behaviors=behaviors["high"],
        workers=get_jobs(),
    )
    return cert
