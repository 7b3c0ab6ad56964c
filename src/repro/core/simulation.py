"""The strategy-simulation checker (Definition 2.1).

``φ ≤_R φ'`` holds "if, and only if, for any two related environmental
event sequences and any two related initial logs, for any log l produced
by φ there must exist a log l' produced by φ' such that l and l' satisfy
R."

The executable check works *spec-first* and exhibits the existential
witness constructively:

1. enumerate every environment behaviour of the **high-level** run to a
   bounded depth — at each query point of the specification, branch over
   an alphabet of environment batches derived from the rely condition
   (:func:`enumerate_local_runs`);
2. for each high-level run, build the related **low-level** environment,
   which lowers every delivered batch through the simulation relation
   at delivery time (``R`` maps each high event to its low witness
   sequence), and run the implementation under it;
3. require the implementation run to be safe (not stuck — this is how
   data-race freedom is established in the push/pull model) and its log
   and return value to be ``R``-related to the specification's.

Environment behaviours that violate the rely condition are pruned — the
machine only owes a simulation against *valid* environment contexts
(§3.2).  Every run's log is collected into the certificate's log
universe for later ``Compat`` checking.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..obs import obs_enabled, span
from ..obs.coverage import CoverageBuilder
from ..obs.forensics import MAX_COUNTEREXAMPLES, build_counterexample
from ..obs.heartbeat import heartbeat
from ..obs.metrics import MetricsWindow, inc, observe
from ..obs.profile import (
    RedundancyBuilder,
    profile_enabled,
    profile_span,
    state_fingerprint,
)
from ..parallel.cache import cached_obligation, cached_obligation_payload
from ..parallel.partition import CHUNKS_PER_WORKER, chunk_evenly
from ..parallel.pool import get_jobs, parallel_map
from .certificate import Certificate, Obligation, stamp_provenance
from .environment import (
    Batch,
    CallScriptedEnv,
    ChoiceEnv,
    EnvContext,
    RecordingEnv,
    ScriptedEnv,
)
from .errors import OutOfFuel
from .events import Event
from .interface import LayerInterface
from .log import Log, LogBuffer
from .machine import LocalRun, run_local
from .relation import SimRel
from .rely_guarantee import Rely
from .replay import replay_cache_info


def prim_player(name: str) -> Callable:
    """A player that calls primitive ``name`` with its run-time args."""

    def player(ctx, *args):
        ret = yield from ctx.call(name, *args)
        return ret

    player.__name__ = f"prim_{name}"
    return player


@dataclass
class SimConfig:
    """Bounds and generators for one simulation check.

    ``env_alphabet`` — the batches the environment may produce at a
    (high-level) query point.  Should include the empty batch to model an
    idle environment step; derived from the rely condition.
    ``env_depth`` — how many query points are branched over.
    ``args_list`` — the argument vectors the primitive is checked at.
    ``compare_rets`` — also require ``R``-related return values.
    """

    env_alphabet: Sequence[Batch] = ((),)
    env_depth: int = 2
    args_list: Sequence[Tuple[Any, ...]] = ((),)
    fuel: int = 10_000
    max_runs: int = 20_000
    compare_rets: bool = True
    check_rely: bool = True
    #: How a scenario check's witness environment delivers the high-level
    #: run's batches to the low-level run: ``"per_query"`` — batch *i* at
    #: the low run's *i*-th query point (fun-lifts: implementation and
    #: low-level strategy share the query structure exactly);
    #: ``"per_call"`` — all batches of high-level call *k* at the low
    #: run's first query point within call *k* (log-lifts: the atomic
    #: spec has fewer query points than the implementation, so only call
    #: boundaries correspond).  :func:`check_sim` ignores it and always
    #: delivers per query.
    delivery: str = "per_call"

    def describe(self) -> Dict[str, Any]:
        return {
            "env_alphabet_size": len(self.env_alphabet),
            "env_depth": self.env_depth,
            "args_count": len(self.args_list),
            "fuel": self.fuel,
        }


@dataclass
class RunRecord:
    """One enumerated run: the environment choices made, the batches the
    environment actually delivered, and the run outcome."""

    choices: Tuple[int, ...]
    batches: Tuple[Batch, ...]
    run: LocalRun


def env_events_valid(log: Log, rely: Rely, env_tids: Set[int]) -> bool:
    """Every environment event satisfies its rely invariant on its prefix.

    One pass: the prefixes are growing snapshots of one buffer, which
    share its replay checkpoints, so each rely leaf folds every event
    once.
    """
    buffer = LogBuffer()
    for event in log.events:
        buffer.append(event)
        if event.tid in env_tids and not rely.condition(event.tid).holds(
            buffer.snapshot()
        ):
            return False
    return True


class _RelyBroken(Exception):
    """Stops a gated env-choice run at its last delivery: the environment
    events delivered by then break the rely.  Not a :class:`Stuck`, so it
    passes through :func:`run_local` unchanged."""

    def __init__(self, log: Log):
        super().__init__("environment events break the rely")
        self.log = log


@dataclass
class _ChoiceRun:
    """One spec run under a :class:`ChoiceEnv` prefix and its rely verdict.

    ``run`` is ``None`` for a run stopped at its last delivery; ``log``
    is then the log at the stop.
    """

    run: Optional[LocalRun]
    log: Log
    batches: Tuple[Batch, ...]
    rely_ok: bool

    def fingerprint(self) -> Tuple[Any, ...]:
        """The run's outcome: what the enumerator hash-conses."""
        run = self.run
        if run is None:
            return (self.log, repr(None), False, None)
        return (run.log, repr(run.ret), run.finished, run.stuck)


def _choice_run(
    interface: LayerInterface,
    tid: int,
    player: Callable,
    args: Tuple[Any, ...],
    config: SimConfig,
    choices: Tuple[int, ...],
) -> Optional[_ChoiceRun]:
    """The rely-gated run of ``player`` under one env-choice prefix.

    Returns ``None`` when the prefix is longer than the player's query
    sequence under it (it denotes no new behaviour), else the run and
    its rely verdict (always true without ``config.check_rely``).  When
    the rely is checked, the prefix is non-empty and the focused tid
    emits none of the alphabet's events, the verdict is decided once,
    when :class:`ChoiceEnv` delivers the batch of the last choice, and a
    false verdict stops the run there.  This is exact:

    1. choice *i* is delivered at query *i*+1, so a stopped run has
       ``len(choices)`` queries and is never one the length skip takes;
    2. :func:`env_events_valid` judges each environment event on the log
       prefix ending at it, and no environment event follows the last
       delivery, so the verdict is final there;
    3. every other run keeps the end-of-run check: a run with no
       choices, one that finishes, gets stuck or runs out of fuel before
       its last delivery, and one whose alphabet holds events of the
       focused tid (its own later events would be judged too).
    """
    rely = interface.rely
    env_tids = {e.tid for batch in config.env_alphabet for e in batch}
    judged: List[Log] = []

    def judge(log: Log) -> None:
        if not env_events_valid(log, rely, env_tids):
            raise _RelyBroken(log)
        judged.append(log)

    gated = config.check_rely and choices and tid not in env_tids
    env = RecordingEnv(ChoiceEnv(
        config.env_alphabet, choices, on_last=judge if gated else None
    ))
    try:
        run = run_local(interface, tid, player, args, env=env, fuel=config.fuel)
    except _RelyBroken as stop:
        return _ChoiceRun(None, stop.log, (), False)
    if run.queries < len(choices):
        return None
    # A run judged at its last delivery passed (a failing one stopped
    # there), and no environment event came after it.
    rely_ok = bool(judged) or not config.check_rely or env_events_valid(
        run.log, rely, env_tids
    )
    return _ChoiceRun(run, run.log, tuple(env.batches), rely_ok)


def enumerate_local_runs(
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
    condition are pruned together with all their extensions; where
    :func:`_choice_run` can decide that at the run's last delivery,
    the run stops there instead of running on (a spin loop whose turn
    never comes would spin until the fuel runs out).  A stopped run is
    counted like any pruned one, with the fingerprint
    ``(log at the stop, repr(None), False, None)``.

    ``coverage`` (optional) accumulates explored-vs-budget counts and a
    depth histogram over the choice prefixes; checkers stamp it into
    certificate provenance.  While profiling, ``redundancy`` (created
    here if not supplied) hash-conses each run's outcome fingerprint to
    count replay-equivalent duplicates and branching factors.
    """
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
            outcome = _choice_run(interface, tid, player, args, config, choices)
            if outcome is None:
                # This prefix is longer than the player's query sequence
                # under it; it denotes no new behaviour (already covered by
                # the shorter prefix).  Skip without branching.
                if redundancy is not None:
                    redundancy.visit(replay=True)
                continue
            if coverage is not None:
                coverage.visit(depth=len(choices))
            key = outcome.fingerprint()
            if redundancy is not None:
                redundancy.visit(state_fingerprint(*key))
            if not outcome.rely_ok:
                if tracking:
                    inc("sim.env_contexts_rely_pruned")
                if coverage is not None:
                    coverage.prune()
                continue
            run = outcome.run
            if key not in seen:
                seen.add(key)
                results.append(RunRecord(choices, outcome.batches, run))
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


@dataclass(frozen=True)
class _Obligation:
    """One Def. 2.1 obligation: ``low_player ≤_R high_player`` at one
    argument vector (:func:`check_sim`) or one scenario.

    The two kinds differ in three inputs only: ``label`` (the prefix of
    every obligation description), ``delivery`` (how the witness
    environment hands the spec run's batches to the low run; ``calls``
    groups them for ``"per_call"``) and ``relate_ret`` (how return values
    relate).
    """

    label: str
    judgment: str
    rule: str
    low_iface: LayerInterface
    low_player: Callable
    high_iface: LayerInterface
    high_player: Callable
    relation: SimRel
    tid: int
    config: SimConfig
    args: Tuple[Any, ...]
    delivery: str
    relate_ret: Callable[[Any, Any], bool]
    calls: int = 0

    def run_low(self, high_run: LocalRun, batches: Sequence[Batch]) -> LocalRun:
        """The implementation under the witness environment of one spec run.

        Batches are lowered at delivery time through
        :meth:`SimRel.concretize_batch`, so stateful relations see the
        low log so far.  ``"per_query"`` delivers batch *i* at the low
        run's *i*-th query point; ``"per_call"`` delivers the batches of
        spec call *k* at the low run's first query point within call *k*.
        """
        lower = self.relation.concretize_batch
        env: EnvContext
        if self.delivery == "per_query":
            env = ScriptedEnv(batches, transform=lower)
        else:
            marks = high_run.ctx.priv.get(CALL_MARKS, [])
            groups = _batch_groups(batches, marks, self.calls)
            env = CallScriptedEnv(groups, transform=lower)
        return run_local(
            self.low_iface, self.tid, self.low_player, self.args,
            env=env, fuel=self.config.fuel,
        )


def _rerun_factory(ob: _Obligation) -> Callable:
    """Replay one env-choice prefix of ``ob`` exactly as it was checked.

    The returned ``rerun(choices)`` runs the spec under the
    :class:`ChoiceEnv` prefix through the enumerator's own gated run
    (:func:`_choice_run`: prefix covered, rely-valid), then runs the
    implementation under the witness environment.  Returns
    ``(high_run, batches, low_run)`` — ``low_run`` is ``None`` when the
    spec run itself was unsafe — or ``None`` when ``choices`` denotes no
    valid environment context, which the shrinker treats as "does not
    reproduce".
    """

    def rerun(choices):
        outcome = _choice_run(
            ob.high_iface, ob.tid, ob.high_player, ob.args, ob.config, choices
        )
        if outcome is None or not outcome.rely_ok:
            return None
        high_run = outcome.run
        low_run = ob.run_low(high_run, outcome.batches) if high_run.ok else None
        return high_run, outcome.batches, low_run

    return rerun


class _SimForensics:
    """Per-judgment counterexample capture for simulation checks.

    Owns the capture budget (:data:`MAX_COUNTEREXAMPLES` per judgment —
    a broken layer fails hundreds of obligations with one root cause)
    and builds the shrinker probe / artifact closures around the
    obligation's ``rerun``.  ``failure`` selects which obligation kind
    must keep reproducing while the schedule shrinks: ``"spec"`` (spec
    unsafe under a valid env), ``"impl"`` (implementation stuck),
    ``"logs"`` (logs unrelated) or ``"rets"`` (return values unrelated
    under the obligation's own ``relate_ret``).
    """

    def __init__(self, ob: _Obligation):
        self.ob = ob
        self.rerun = _rerun_factory(ob)
        self.captured = 0

    def _fails_as(self, failure: str) -> Callable:
        relation = self.ob.relation

        def still_fails(choices):
            replay = self.rerun(choices)
            if replay is None:
                return False
            high_run, _, low_run = replay
            if failure == "spec":
                return not high_run.ok
            if not high_run.ok or low_run is None:
                return False
            if failure == "impl":
                return not low_run.ok
            if not low_run.ok:
                return False
            if failure == "logs":
                return not relation.relate_logs(low_run.log, high_run.log)
            return not self.ob.relate_ret(low_run.ret, high_run.ret)

        return still_fails

    def _artifacts_for(self, failure: str) -> Callable:
        relation = self.ob.relation

        def artifacts(choices):
            replay = self.rerun(choices)
            if replay is None:
                return {}
            high_run, batches, low_run = replay
            if failure == "spec":
                return {
                    "log": tuple(high_run.log),
                    "env_moves": batches,
                    "status": high_run.stuck or "guarantee violated",
                }
            if low_run is None:
                return {}
            if failure == "impl":
                return {
                    "log": tuple(low_run.log),
                    "env_moves": batches,
                    "status": low_run.stuck or "guarantee violated",
                }
            # Divergence view for unrelated logs/rets: exactly the pair
            # SimRel.relate_logs compares — essential low events vs. the
            # R-image of the spec's non-scheduler events.
            got = relation.essential_low(low_run.log)
            want = relation.map_events(
                e for e in high_run.log if not e.is_sched()
            )
            status = (
                f"logs unrelated under {relation.name}"
                if failure == "logs"
                else f"rets unrelated: {low_run.ret!r} vs {high_run.ret!r}"
            )
            return {
                "log": got,
                "expected_log": want,
                "env_moves": batches,
                "status": status,
            }

        return artifacts

    def capture(
        self,
        failure: str,
        obligation: str,
        status: str,
        choices: Tuple[int, ...],
    ) -> Optional[Dict[str, Any]]:
        """Shrink + hydrate one failing context into obligation evidence."""
        if self.captured >= MAX_COUNTEREXAMPLES:
            return None
        self.captured += 1
        counterexample = build_counterexample(
            kind="simulation",
            judgment=self.ob.judgment,
            obligation=obligation,
            status=status,
            schedule=choices,
            still_fails=self._fails_as(failure),
            artifacts=self._artifacts_for(failure),
        )
        return {"counterexample": counterexample}


def _trim_counterexamples(
    obligations, budget: int = MAX_COUNTEREXAMPLES
) -> int:
    """Enforce the per-judgment counterexample budget at merge time.

    Parallel (or per-chunk) checking gives each task its own forensics
    budget so no counterexample a serial run would have captured is
    missing; the merged obligation list may then carry more.  Walking the
    obligations in serial plan order and dropping evidence past the
    budget restores exactly the serial capture set (capture + shrinking
    are deterministic per failing context).  The capture-count metric is
    adjusted down by the number trimmed so counter totals match a serial
    run.
    """
    kept = 0
    trimmed = 0
    for obligation in obligations:
        if obligation.evidence and "counterexample" in obligation.evidence:
            kept += 1
            if kept > budget:
                obligation.evidence = None
                trimmed += 1
    if trimmed:
        inc("cert.counterexamples_captured", -trimmed)
    return trimmed


def _discharge(ob: _Obligation, records: Sequence[RunRecord]) -> Dict[str, Any]:
    """Discharge ``ob`` on each enumerated environment context: spec
    safe, impl safe, logs related and (``compare_rets``) rets related.

    Returns the obligations plus one log per spec run and one per
    executed implementation run.
    """
    cert = Certificate(judgment=ob.judgment, rule=ob.rule)
    logs: List[Log] = []
    forensics = _SimForensics(ob)
    relation = ob.relation

    def add(kind, what, ok, choices, details, status=None):
        evidence = None if ok else forensics.capture(
            kind, what, status or details, choices
        )
        cert.add(what, ok, details, evidence=evidence)

    budget = len(records)
    for explored, record in enumerate(records):
        heartbeat("sim.discharge", explored=explored, budget=budget)
        label = f"{ob.label} env={record.choices}"
        high_run = record.run
        logs.append(high_run.log)
        if not high_run.ok:
            add(
                "spec", f"spec safe under valid env [{label}]", False,
                record.choices, high_run.stuck or "guarantee violated",
            )
            continue
        low_run = ob.run_low(high_run, record.batches)
        logs.append(low_run.log)
        if not low_run.ok:
            add(
                "impl", f"impl safe [{label}]", False, record.choices,
                low_run.stuck or "guarantee violated",
            )
            continue
        related = relation.relate_logs(low_run.log, high_run.log)
        add(
            "logs", f"logs related [{label}]", related, record.choices,
            "" if related else relation.explain(low_run.log, high_run.log),
            f"logs unrelated under {relation.name}",
        )
        if ob.config.compare_rets:
            rets_ok = ob.relate_ret(low_run.ret, high_run.ret)
            add(
                "rets", f"rets related [{label}]", rets_ok, record.choices,
                "" if rets_ok else f"{low_run.ret!r} vs {high_run.ret!r}",
            )
    return {"obligations": cert.obligations, "logs": logs}


def _check_obligation(ob: _Obligation) -> Dict[str, Any]:
    """Enumerate the spec's environment contexts for ``ob`` and discharge
    each one.

    With more than one worker the contexts are chunked across processes
    (records hold live execution contexts and reach workers via fork
    inheritance, never the pickle pipe); every chunk has its own
    counterexample budget and the merged obligations are trimmed back to
    the serial capture set.  Returns the obligations, logs and
    environment-context count plus the coverage and (while profiling)
    profile blocks.
    """
    config = ob.config
    prof = profile_enabled()
    t_obligation = time.perf_counter() if prof else 0.0
    env_red = RedundancyBuilder("env_contexts") if prof else None
    env_cov = (
        CoverageBuilder(
            "env_contexts",
            budget=config.max_runs,
            depth_bound=config.env_depth,
        )
        if obs_enabled() else None
    )
    obligations: List[Obligation] = []
    logs: List[Log] = []
    with profile_span(f"obligation[{ob.label}]"):
        records = enumerate_local_runs(
            ob.high_iface, ob.tid, ob.high_player, ob.args, config,
            coverage=env_cov, redundancy=env_red,
        )
        jobs = get_jobs()
        chunks = (
            chunk_evenly(records, jobs * CHUNKS_PER_WORKER)
            if jobs > 1 else [records]
        )
        for chunk_output in parallel_map(
            lambda chunk: _discharge(ob, chunk), chunks
        ):
            obligations.extend(chunk_output["obligations"])
            logs.extend(chunk_output["logs"])
        _trim_counterexamples(obligations)
    output: Dict[str, Any] = {
        "obligations": obligations,
        "logs": logs,
        "env_contexts": len(records),
        "coverage": (
            {"env_contexts": env_cov.record()}
            if env_cov is not None else None
        ),
    }
    if env_red is not None:
        # One log per spec run plus one per executed implementation run:
        # the low-run count falls out of the ledger without extra plumbing.
        output["profile"] = {
            "obligation": ob.label,
            "wall_us": int((time.perf_counter() - t_obligation) * 1e6),
            "states": env_red.explored + len(logs) - len(records),
            "redundancy": env_red.record(),
        }
    return output


def check_sim(
    low_iface: LayerInterface,
    low_player: Callable,
    high_iface: LayerInterface,
    high_player: Callable,
    relation: SimRel,
    tid: int,
    config: SimConfig,
    judgment: str,
    rule: str = "sim",
    obligation_key: Optional[Callable[[Tuple[Any, ...]], Any]] = None,
) -> Certificate:
    """Check ``low_player ≤_R high_player`` per Def. 2.1 (spec-first).

    Both players receive the same argument vectors.  For every high-level
    run under a rely-valid environment, the low-level run under the
    R-mapped environment (delivered per query) must finish safely with
    an R-related log and return value.

    With more than one worker (``REPRO_JOBS``) the argument vectors are
    checked in worker processes; with a single argument vector the
    enumerated environment contexts are chunked across workers instead.
    Obligations and logs merge in serial order and the counterexample
    budget is enforced globally at merge, so the certificate is
    identical to a serial run's.

    ``obligation_key`` (built by the rule constructors from
    :mod:`repro.analysis.slices`) keys each argument vector's
    obligations in the per-obligation cache; warm vectors re-load their
    obligations and logs instead of re-enumerating.  Counterexample
    trimming happens at merge, after cache load, so warm and cold
    certificates stay byte-identical.
    """
    started = time.perf_counter()
    window = MetricsWindow()
    cert = Certificate(judgment=judgment, rule=rule, bounds=config.describe())
    args_vectors = [tuple(args) for args in config.args_list]
    args_cov = (
        CoverageBuilder("args_vectors", budget=len(args_vectors))
        if obs_enabled() else None
    )

    def checked_args_vector(args: Tuple[Any, ...]) -> Dict[str, Any]:
        ob = _Obligation(
            label=f"args={args}", judgment=judgment, rule=rule,
            low_iface=low_iface, low_player=low_player,
            high_iface=high_iface, high_player=high_player,
            relation=relation, tid=tid, config=config, args=args,
            delivery="per_query", relate_ret=relation.relate_ret,
        )
        key = obligation_key(args) if obligation_key is not None else None
        return cached_obligation_payload(
            "sim-args", key, lambda: _check_obligation(ob),
            ("obligations", "logs", "env_contexts"),
        )

    with span("check_sim", judgment=judgment, rule=rule):
        init_ok = relation.relate_logs(
            Log(low_iface.init_log), Log(high_iface.init_log)
        )
        cert.add("initial logs related", init_ok)
        outputs = parallel_map(checked_args_vector, args_vectors)
        logs: List[Log] = []
        for output in outputs:
            cert.obligations.extend(output["obligations"])
            logs.extend(output["logs"])
        _trim_counterexamples(cert.obligations)
    cert.log_universe = tuple(logs)
    elapsed = time.perf_counter() - started
    if obs_enabled():
        observe("sim.check_wall_s", elapsed)
    extra: Dict[str, Any] = dict(
        env_contexts=sum(output["env_contexts"] for output in outputs),
        args_vectors=len(args_vectors),
        workers=get_jobs(),
    )
    if obs_enabled():
        extra["replay_cache"] = replay_cache_info()
    if args_cov is not None:
        args_cov.visit(n=len(outputs))
        outputs.append({"coverage": {"args_vectors": args_cov.record()}})
    stamp_provenance(cert, elapsed, window, outputs, **extra)
    return cert


@dataclass
class Scenario:
    """One protocol-respecting call sequence used as a check obligation.

    Primitives with preconditions (``rel`` needs the lock held, ``deQ``
    needs the queue lock protocol, ...) cannot be checked in isolation;
    the unit of checking is a *scenario*: a sequence of calls respecting
    the object's protocol, run against both the implementation and the
    specification.  ``calls`` is a list of ``(name, args)`` pairs;
    ``config`` carries the environment bounds for this scenario.
    """

    label: str
    calls: Sequence[Tuple[str, Tuple[Any, ...]]]
    config: SimConfig


CALL_MARKS = "__call_marks"


def scenario_spec_player(scenario: Scenario) -> Callable:
    """The specification side: call the overlay primitives in sequence.

    Records a *call mark* (the completed-query count) at the start of
    every call so the checker can group the environment batches by call
    and replay them call-aligned on the implementation side.
    """

    def player(ctx):
        marks = ctx.priv.setdefault(CALL_MARKS, [])
        rets = []
        for index, (name, args) in enumerate(scenario.calls):
            marks.append(ctx.queries)
            ctx.scenario_call = index
            ret = yield from ctx.call(name, *args)
            rets.append(ret)
        return rets

    player.__name__ = f"spec_{scenario.label}"
    return player


def scenario_impl_player(module, scenario: Scenario) -> Callable:
    """The implementation side: run the module's bodies in sequence.

    Maintains ``ctx.scenario_call`` so a :class:`CallScriptedEnv` can
    deliver witness batches at the right call.
    """

    def player(ctx):
        rets = []
        for index, (name, args) in enumerate(scenario.calls):
            ctx.scenario_call = index
            impl = module.funcs[name]
            ret = yield from impl.player(ctx, *args)
            rets.append(ret)
        return rets

    player.__name__ = f"impl_{scenario.label}"
    return player


def _batch_groups(batches: Sequence[Batch], marks: Sequence[int], n_calls: int) -> List[Batch]:
    """Group delivered batches by the call during which they arrived."""
    groups: List[Batch] = []
    for index in range(n_calls):
        start = marks[index] if index < len(marks) else len(batches)
        end = marks[index + 1] if index + 1 < len(marks) else len(batches)
        flat: List[Event] = []
        for batch in batches[start:end]:
            flat.extend(batch)
        groups.append(tuple(flat))
    return groups


def _relate_ret_lists(relation: SimRel, low, high) -> bool:
    """Relate a scenario's per-call return lists call by call."""
    if isinstance(low, list) and isinstance(high, list):
        return len(low) == len(high) and all(
            relation.relate_ret(a, b) for a, b in zip(low, high)
        )
    return relation.relate_ret(low, high)


def _check_scenario(
    low_iface: LayerInterface,
    impl_player: Callable,
    high_iface: LayerInterface,
    scenario: Scenario,
    relation: SimRel,
    tid: int,
    judgment: str,
    rule: str,
) -> Certificate:
    """One scenario as a Def. 2.1 obligation: the spec player calls the
    scenario's primitives, the witness environment delivers per the
    scenario config's ``delivery``, and return lists relate call by call
    — the constructive form of Def. 2.1's "related environmental event
    sequences" for multi-call protocols."""
    started = time.perf_counter()
    window = MetricsWindow()
    config = scenario.config
    cert = Certificate(judgment=judgment, rule=rule, bounds=config.describe())
    ob = _Obligation(
        label=scenario.label, judgment=judgment, rule=rule,
        low_iface=low_iface, low_player=impl_player,
        high_iface=high_iface, high_player=scenario_spec_player(scenario),
        relation=relation, tid=tid, config=config, args=(),
        delivery=config.delivery,
        relate_ret=lambda low, high: _relate_ret_lists(relation, low, high),
        calls=len(scenario.calls),
    )
    with span(
        "check_scenario_sim", scenario=scenario.label, judgment=judgment
    ):
        init_ok = relation.relate_logs(
            Log(low_iface.init_log), Log(high_iface.init_log)
        )
        cert.add("initial logs related", init_ok)
        output = _check_obligation(ob)
    cert.obligations.extend(output["obligations"])
    cert.log_universe = tuple(output["logs"])
    elapsed = time.perf_counter() - started
    if obs_enabled():
        observe("sim.scenario_wall_s", elapsed)
    stamp_provenance(
        cert, elapsed, window, [output],
        env_contexts=output["env_contexts"],
        scenario=scenario.label,
        calls=len(scenario.calls),
        workers=get_jobs(),
    )
    return cert


def check_scenarios(
    low_iface: LayerInterface,
    impl_player_for,
    high_iface: LayerInterface,
    relation: SimRel,
    tid: int,
    scenarios: Sequence[Scenario],
    judgment: str,
    rule: str = "sim",
    obligation_key: Optional[Callable[[Scenario], Any]] = None,
) -> Certificate:
    """Check a family of scenarios; one sub-certificate per scenario.

    ``impl_player_for(scenario)`` builds the low-level player (module
    bodies, or low-interface primitive calls when checking an interface
    simulation).  With more than one worker and multiple scenarios each
    scenario is checked in its own worker process; with a single
    scenario the workers go to the per-environment-context fan-out
    instead.

    ``obligation_key(scenario)`` (an
    :data:`~repro.analysis.slices.ObligationKey` builder) enables the
    per-obligation cache: scenarios whose dependency slice is unchanged
    re-load their sub-certificate instead of re-enumerating.
    """
    started = time.perf_counter()
    window = MetricsWindow()
    cert = Certificate(judgment=judgment, rule=rule)
    with span("check_scenarios", judgment=judgment, scenarios=len(scenarios)):
        def check_one(scenario: Scenario) -> Certificate:
            key = obligation_key(scenario) if obligation_key is not None else None
            return cached_obligation(
                "scenario",
                key,
                lambda: _check_scenario(
                    low_iface,
                    impl_player_for(scenario),
                    high_iface,
                    scenario,
                    relation,
                    tid,
                    judgment=f"{judgment} :: {scenario.label}",
                    rule=rule,
                ),
            )

        cert.children.extend(parallel_map(check_one, list(scenarios)))
    stamp_provenance(
        cert, time.perf_counter() - started, window,
        scenarios=[s.label for s in scenarios],
        workers=get_jobs(),
    )
    return cert
