"""The concurrent layer calculus (paper Fig. 9).

Each rule of the calculus is a function that checks its premises and
constructs the conclusion as a :class:`CertifiedLayer`.  The functions
raise :class:`~repro.core.errors.ComposeError` on structural mismatch and
:class:`~repro.core.errors.VerificationError` when a semantic premise
fails its check, so an ill-formed judgment can never be produced:

* ``empty_rule`` — ``L[A] ⊢_id ∅ : L[A]``
* ``fun_rule`` — ``LκM_{L[c]} ≤_R σ  ⟹  L[c] ⊢_id (i ↦ κ) : (i ↦ σ)``
* ``vcomp`` — vertical composition through a shared middle interface
* ``hcomp`` — horizontal composition of same-level siblings
* ``weaken`` (Wk) — pre/post interface simulation
* ``check_compat_interfaces`` (Compat) — rely/guarantee compatibility
* ``pcomp`` — parallel composition over disjoint focused sets
"""

from __future__ import annotations

import time
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

from ..envflags import pinned
from ..obs import obs_enabled, span
from ..obs.coverage import CoverageBuilder
from ..obs.metrics import MetricsWindow, inc, observe
from ..parallel.cache import cache_enabled, cached_certificate
from ..parallel.pool import get_jobs
from .certificate import (
    Certificate,
    CertifiedLayer,
    InterfaceSim,
    stamp_lint,
    stamp_provenance,
)
from .errors import ComposeError
from .interface import LayerInterface
from .log import Log
from .module import FuncImpl, Module
from .relation import ID_REL, SimRel
from .rely_guarantee import check_compat
from .simulation import (
    Scenario,
    SimConfig,
    check_scenarios,
    check_sim,
    prim_player,
    scenario_impl_player,
    scenario_spec_player,
)


def _rule_span(rule: str, **args):
    """Span + counters for one calculus-rule application (obs-gated)."""
    inc("calculus.rules_applied")
    inc(f"calculus.rule.{rule}")
    return span(f"rule.{rule}", category="calculus", **args)


def _stamp_rule(cert: Certificate, rule: str, started: float,
                window: MetricsWindow, **extra) -> None:
    elapsed = time.perf_counter() - started
    if obs_enabled():
        observe(f"calculus.rule_wall_s.{rule}", elapsed)
    stamp_provenance(cert, elapsed, window, **extra)


def _lint_gate(rule: str, judgment: str, mode: str, inputs: Dict[str, Any]):
    """Run the static pre-pass in lint ``mode`` over ``inputs``, the
    keyword arguments of :func:`~repro.analysis.linter.lint_rule_inputs`.

    In ``strict`` mode, unsuppressed ERROR findings refuse the judgment
    up front: a failing certificate carrying one obligation per finding
    is raised via :class:`~repro.core.errors.VerificationError` *before*
    the certificate cache is consulted, so a statically ill-formed
    application is refused cold and warm alike.  In ``record`` mode the
    report is returned for provenance stamping; ``off`` skips the pass.
    """
    from ..analysis.linter import lint_rule_inputs
    from ..analysis.rules import RULESET_VERSION

    if mode == "off":
        return None
    report = lint_rule_inputs(mode=mode, **inputs)
    inc("lint.runs")
    if report.findings:
        inc("lint.findings", len(report.findings))
    if mode == "strict" and report.errors:
        cert = Certificate(
            judgment=judgment,
            rule=rule,
            bounds={"lint_ruleset": RULESET_VERSION, "lint_mode": mode},
        )
        for f in report.errors:
            cert.add(
                f"lint {f.rule_id} clean",
                False,
                f.render(),
                evidence={"lint_finding": f.to_dict()},
            )
        stamp_lint(cert, report)
        cert.require_ok()
    return report


def _sim_rule(
    rule: str,
    judgment: str,
    lint_inputs: Dict[str, Any],
    cache_parts: Tuple[Any, ...],
    obligation_key: Callable[[], Callable[[Any], Any]],
    check: Callable[[Optional[Callable[[Any], Any]]], Certificate],
    started: float,
    window: MetricsWindow,
    **extra: Any,
) -> Certificate:
    """The body shared by the rules that discharge Def. 2.1 obligations.

    Pins the engine configuration for the whole application, runs the
    lint gate (before the certificate cache, so a refused application is
    refused cold and warm alike), keys the rule-level cache on
    ``cache_parts``, and stamps rule and lint provenance.
    ``obligation_key()`` builds the per-obligation key function,
    consulted only while the cache is enabled; ``check(key)`` runs the
    simulation checker.
    """
    with pinned() as config:
        lint_report = _lint_gate(rule, judgment, config.lint, lint_inputs)
        key = obligation_key() if cache_enabled() else None

        def compute() -> Certificate:
            cert = check(key)
            _stamp_rule(cert, rule, started, window, **extra, workers=get_jobs())
            return cert

        cert = cached_certificate(rule, cache_parts, compute)
        stamp_lint(cert, lint_report)
    return cert


def module_rule(
    underlay: LayerInterface,
    module: Module,
    overlay: LayerInterface,
    relation: SimRel,
    tid: int,
    scenarios: Sequence[Scenario],
) -> CertifiedLayer:
    """``Fun`` generalized to a whole module via protocol scenarios.

    Primitives with protocol preconditions (release needs a prior
    acquire) are certified through scenarios: every protocol-respecting
    call sequence supplied is checked implementation-vs-specification
    under all bounded environment behaviours.  Each module function must
    be exercised by at least one scenario and have a specification in
    the overlay.

    Structural pre-checks (scenario coverage, overlay specs) run before
    the certificate cache is consulted, so a malformed application
    raises :class:`ComposeError` cold or warm; cached *failing*
    certificates likewise re-raise through ``CertifiedLayer``'s
    ``require_ok``, which runs outside the cached computation.
    """
    started = time.perf_counter()
    window = MetricsWindow()
    with _rule_span("Fun*", module=module.name, overlay=overlay.name):
        covered = {name for s in scenarios for name, _ in s.calls}
        for name in module.names():
            if name not in covered:
                raise ComposeError(f"module function {name!r} not covered by any scenario")
            if not overlay.has(name):
                raise ComposeError(f"overlay {overlay.name} lacks a spec for {name!r}")
        judgment = (
            f"{underlay.name}[{tid}] ⊢_{relation.name} {module.name} : "
            f"{overlay.name}[{tid}]"
        )

        def obligation_key() -> Callable[[Any], Any]:
            from ..analysis.slices import scenario_obligation_key

            return lambda scenario: scenario_obligation_key(
                kind="Fun*", rule="Fun*", judgment=judgment,
                low=underlay, high=overlay, relation=relation, tid=tid,
                scenario=scenario, module=module,
            )

        cert = _sim_rule(
            "Fun*", judgment,
            dict(underlay=underlay, module=module, overlay=overlay,
                 relation=relation, interfaces=(underlay, overlay)),
            (underlay, module, overlay, relation, tid, tuple(scenarios)),
            obligation_key,
            lambda key: check_scenarios(
                underlay, lambda scenario: scenario_impl_player(module, scenario),
                overlay, relation, tid, scenarios, judgment=judgment,
                rule="Fun*", obligation_key=key,
            ),
            started, window,
            module=module.name,
            functions=sorted(module.names()),
            scenarios=len(scenarios),
        )
        layer = CertifiedLayer(underlay, module, overlay, relation, {tid}, cert)
    return layer


def interface_sim_rule(
    low: LayerInterface,
    high: LayerInterface,
    relation: SimRel,
    tid: int,
    scenarios: Sequence[Scenario],
) -> InterfaceSim:
    """Establish ``L ≤_R L'`` via protocol scenarios (a ``Wk`` premise).

    Both sides run the *same* primitive call sequences — the low
    interface's strategies against the high interface's — under all
    bounded environment behaviours, related by ``R``.  This is the
    log-lift step: e.g. ``L_lock_low[i] ≤_{R_lock} L_lock[i]``.

    Cache-aware like :func:`module_rule`: the :class:`InterfaceSim`
    wrapper (and its ``require_ok``) is built outside the cached
    computation, so cached failing certificates raise identically warm.
    """
    started = time.perf_counter()
    window = MetricsWindow()
    with _rule_span("interface-sim", low=low.name, high=high.name):
        judgment = f"{low.name} ≤_{relation.name} {high.name}"

        def obligation_key() -> Callable[[Any], Any]:
            from ..analysis.slices import scenario_obligation_key

            return lambda scenario: scenario_obligation_key(
                kind="interface-sim", rule="interface-sim",
                judgment=judgment, low=low, high=high, relation=relation,
                tid=tid, scenario=scenario,
            )

        cert = _sim_rule(
            "interface-sim", judgment,
            dict(relation=relation, interfaces=(low, high)),
            (low, high, relation, tid, tuple(scenarios)),
            obligation_key,
            # The low side also just calls its primitives.
            lambda key: check_scenarios(
                low, scenario_spec_player, high, relation, tid, scenarios,
                judgment=judgment, rule="interface-sim", obligation_key=key,
            ),
            started, window,
            scenarios=len(scenarios),
        )
        sim = InterfaceSim(low, high, relation, cert)
    return sim


def empty_rule(interface: LayerInterface, focused: Iterable[int]) -> CertifiedLayer:
    """``Empty``: the empty module implements any interface over itself."""
    started = time.perf_counter()
    window = MetricsWindow()
    with _rule_span("Empty", interface=interface.name):
        cert = Certificate(
            judgment=f"{interface.name} ⊢_id ∅ : {interface.name}",
            rule="Empty",
        )
        cert.add("empty module", True)
        layer = CertifiedLayer(
            interface, Module.empty(), interface, ID_REL, focused, cert
        )
    _stamp_rule(cert, "Empty", started, window)
    return layer


def fun_rule(
    underlay: LayerInterface,
    impl: FuncImpl,
    overlay: LayerInterface,
    relation: SimRel,
    tid: int,
    config: SimConfig,
) -> CertifiedLayer:
    """``Fun``: certify one function against its overlay specification.

    Checks ``LκM_{L[tid]} ≤_R σ`` where ``κ`` is ``impl`` run over the
    underlay and ``σ`` is the primitive named ``impl.name`` in the
    overlay.  This single rule covers both of the paper's leaf patterns:
    *fun-lift* (code to low-level strategy, usually ``R = id``) and
    *log-lift* (low-level strategy to atomic strategy, ``R`` merging
    events) — the pattern is decided by the relation and the overlay
    spec, not by the rule.
    """
    started = time.perf_counter()
    window = MetricsWindow()
    with _rule_span("Fun", function=impl.name, overlay=overlay.name):
        if not overlay.has(impl.name):
            raise ComposeError(
                f"overlay {overlay.name} has no specification for {impl.name!r}"
            )
        judgment = (
            f"{underlay.name}[{tid}] \u22a2_{relation.name} "
            f"{impl.name} : {overlay.name}.{impl.name}"
        )

        def obligation_key() -> Callable[[Any], Any]:
            from ..analysis.slices import sim_args_obligation_key

            return lambda args: sim_args_obligation_key(
                kind="Fun", judgment=judgment,
                low=underlay, high=overlay, name=impl.name,
                relation=relation, tid=tid, config=config, args=args,
                impl=impl,
            )

        cert = _sim_rule(
            "Fun", judgment,
            dict(underlay=underlay, module=Module.single(impl), overlay=overlay,
                 relation=relation, interfaces=(underlay, overlay)),
            (underlay, impl, overlay, relation, tid, config),
            obligation_key,
            lambda key: check_sim(
                underlay, impl.player, overlay, prim_player(impl.name),
                relation, tid, config, judgment=judgment, rule="Fun",
                obligation_key=key,
            ),
            started, window,
            function=impl.name, lang=impl.lang,
        )
        layer = CertifiedLayer(
            underlay, Module.single(impl), overlay, relation, {tid}, cert
        )
    return layer


def vcomp(lower: CertifiedLayer, upper: CertifiedLayer) -> CertifiedLayer:
    """``Vcomp``: stack two certified layers through their shared middle.

    ``L1 ⊢_R M : L2`` and ``L2 ⊢_S N : L3`` give
    ``L1 ⊢_{R∘S} M ⊕ N : L3``.
    """
    started = time.perf_counter()
    window = MetricsWindow()
    with _rule_span(
        "Vcomp", lower=lower.module.name, upper=upper.module.name
    ):
        if lower.overlay is not upper.underlay and not _same_interface(
            lower.overlay, upper.underlay
        ):
            raise ComposeError(
                f"vertical composition mismatch: {lower.overlay.name} vs "
                f"{upper.underlay.name}"
            )
        if lower.focused != upper.focused:
            raise ComposeError(
                f"focused-set mismatch: {sorted(lower.focused)} vs "
                f"{sorted(upper.focused)}"
            )
        relation = lower.relation.compose(upper.relation)
        cert = Certificate(
            judgment=(
                f"{lower.underlay.name} ⊢_{relation.name} "
                f"{lower.module.name} ⊕ {upper.module.name} : {upper.overlay.name}"
            ),
            rule="Vcomp",
            children=[lower.certificate, upper.certificate],
        )
        cert.add("middle interfaces agree", True)
        layer = CertifiedLayer(
            lower.underlay,
            lower.module.oplus(upper.module),
            upper.overlay,
            relation,
            lower.focused,
            cert,
        )
    _stamp_rule(cert, "Vcomp", started, window, middle=lower.overlay.name)
    return layer


def hcomp(
    left: CertifiedLayer,
    right: CertifiedLayer,
    overlay: Optional[LayerInterface] = None,
) -> CertifiedLayer:
    """``Hcomp``: combine independent same-level modules.

    Both layers must share the underlay and the simulation relation; the
    combined overlay merges the two primitive collections and must carry
    the same rely/guarantee as both sides (checked structurally).
    """
    started = time.perf_counter()
    window = MetricsWindow()
    with _rule_span(
        "Hcomp", left=left.module.name, right=right.module.name
    ):
        if left.underlay is not right.underlay and not _same_interface(
            left.underlay, right.underlay
        ):
            raise ComposeError(
                f"horizontal composition needs a common underlay: "
                f"{left.underlay.name} vs {right.underlay.name}"
            )
        if left.focused != right.focused:
            raise ComposeError("horizontal composition needs equal focused sets")
        if left.relation.name != right.relation.name:
            raise ComposeError(
                f"horizontal composition needs one relation: "
                f"{left.relation.name} vs {right.relation.name}"
            )
        merged = overlay or left.overlay.merge_prims(right.overlay)
        for name in list(left.overlay.prims) + list(right.overlay.prims):
            if not merged.has(name):
                raise ComposeError(f"merged overlay lost primitive {name!r}")
        cert = Certificate(
            judgment=(
                f"{left.underlay.name} ⊢_{left.relation.name} "
                f"{left.module.name} ⊕ {right.module.name} : {merged.name}"
            ),
            rule="Hcomp",
            children=[left.certificate, right.certificate],
        )
        cert.add("disjoint modules", not set(left.module.names()) & set(right.module.names()))
        layer = CertifiedLayer(
            left.underlay,
            left.module.oplus(right.module),
            merged,
            left.relation,
            left.focused,
            cert,
        )
    _stamp_rule(cert, "Hcomp", started, window, merged_overlay=merged.name)
    return layer


def weaken(
    layer: CertifiedLayer,
    pre: Optional[InterfaceSim] = None,
    post: Optional[InterfaceSim] = None,
) -> CertifiedLayer:
    """``Wk``: strengthen the underlay and/or weaken the overlay.

    ``L1' ≤_R L1``, ``L1 ⊢_S M : L2``, ``L2 ≤_T L2'`` give
    ``L1' ⊢_{R∘S∘T} M : L2'``.  Either side may be omitted.
    """
    started = time.perf_counter()
    window = MetricsWindow()
    with _rule_span("Wk", module=layer.module.name):
        underlay = layer.underlay
        overlay = layer.overlay
        relation: SimRel = layer.relation
        children: List[Certificate] = [layer.certificate]
        if pre is not None:
            if not _same_interface(pre.high, layer.underlay):
                raise ComposeError(
                    f"pre-simulation target {pre.high.name} is not the underlay "
                    f"{layer.underlay.name}"
                )
            underlay = pre.low
            relation = pre.relation.compose(relation)
            children.append(pre.certificate)
        if post is not None:
            if not _same_interface(post.low, layer.overlay):
                raise ComposeError(
                    f"post-simulation source {post.low.name} is not the overlay "
                    f"{layer.overlay.name}"
                )
            overlay = post.high
            relation = relation.compose(post.relation)
            children.append(post.certificate)
        cert = Certificate(
            judgment=(
                f"{underlay.name} ⊢_{relation.name} {layer.module.name} : "
                f"{overlay.name}"
            ),
            rule="Wk",
            children=children,
        )
        cert.add("weakening premises certified", True)
        weakened = CertifiedLayer(
            underlay, layer.module, overlay, relation, layer.focused, cert
        )
    _stamp_rule(
        cert, "Wk", started, window,
        pre=pre.low.name if pre is not None else None,
        post=post.high.name if post is not None else None,
    )
    return weakened


def check_compat_interfaces(
    iface: LayerInterface,
    tids_a: Iterable[int],
    tids_b: Iterable[int],
    universe: Iterable[Log],
) -> Certificate:
    """``Compat``: check ``compat(L[A], L[B], L[A∪B])`` over a log universe.

    The interface value is shared (our interfaces are not specialized per
    focused set), so ``L[A∪B].L = L[A].L = L[B].L`` holds by construction;
    what remains is the rely/guarantee cross-implication, checked on every
    log in the universe (see DESIGN.md §4 for the coverage caveat).
    """
    started = time.perf_counter()
    window = MetricsWindow()
    tids_a = sorted(set(tids_a))
    tids_b = sorted(set(tids_b))
    universe = list(universe)
    with pinned():

        def compute() -> Certificate:
            cert = Certificate(
                judgment=f"compat({iface.name}[{tids_a}], {iface.name}[{tids_b}])",
                rule="Compat",
                bounds={"universe_size": len(universe)},
            )
            with _rule_span(
                "Compat", interface=iface.name, universe=len(universe)
            ):
                if set(tids_a) & set(tids_b):
                    cert.add("A ⊥ B", False, f"overlap: {set(tids_a) & set(tids_b)}")
                    return cert
                cert.add("A ⊥ B", True)
                inc("compat.logs_checked", len(universe))
                failures = check_compat(
                    iface.rely, iface.guar, tids_a, iface.rely, iface.guar, tids_b,
                    universe,
                )
                if failures:
                    for failure in failures:
                        cert.add("G ⊇ R implication", False, failure)
                else:
                    cert.add("G ⊇ R implications on universe", True)
            extra = dict(
                universe_size=len(universe), tids_a=tids_a, tids_b=tids_b,
            )
            if obs_enabled():
                # The Compat rule's enumeration axis is the log universe itself:
                # the rely/guarantee cross-implication is only checked on logs
                # actually encountered while certifying the premises (DESIGN.md
                # §4's coverage caveat, now stated in the certificate).
                cov = CoverageBuilder("compat.log_universe", budget=len(universe))
                cov.visit(n=len(universe))
                cov.distinct = len(set(universe))
                extra["coverage"] = {"compat.log_universe": cov.record()}
            _stamp_rule(cert, "Compat", started, window, **extra)
            return cert

        return cached_certificate(
            "Compat",
            (iface, tuple(tids_a), tuple(tids_b), tuple(universe)),
            compute,
        )


def pcomp(
    left: CertifiedLayer,
    right: CertifiedLayer,
    universe: Optional[Sequence[Log]] = None,
) -> CertifiedLayer:
    """``Pcomp``: parallel composition over disjoint focused sets.

    Premises: the same module certified over ``A`` and over ``B`` with the
    same relation; ``compat`` for both the underlay and overlay
    interfaces.  The conclusion focuses ``A ∪ B``.
    """
    started = time.perf_counter()
    window = MetricsWindow()
    with _rule_span(
        "Pcomp",
        module=left.module.name,
        left=sorted(left.focused),
        right=sorted(right.focused),
    ):
        if left.focused & right.focused:
            raise ComposeError(
                f"parallel composition needs disjoint focused sets: "
                f"{sorted(left.focused)} vs {sorted(right.focused)}"
            )
        if set(left.module.names()) != set(right.module.names()):
            raise ComposeError(
                "parallel composition needs the same module on both sides"
            )
        if left.relation.name != right.relation.name:
            raise ComposeError(
                "parallel composition needs the same simulation relation"
            )
        if not _same_interface(left.underlay, right.underlay) or not _same_interface(
            left.overlay, right.overlay
        ):
            raise ComposeError(
                "parallel composition needs identical interfaces on both sides"
            )
        if universe is None:
            universe = list(left.certificate.all_logs()) + list(
                right.certificate.all_logs()
            )
        compat_under = check_compat_interfaces(
            left.underlay, left.focused, right.focused, universe
        )
        compat_over = check_compat_interfaces(
            left.overlay, left.focused, right.focused, universe
        )
        focused = left.focused | right.focused
        cert = Certificate(
            judgment=(
                f"{left.underlay.name}[{sorted(focused)}] ⊢_{left.relation.name} "
                f"{left.module.name} : {left.overlay.name}[{sorted(focused)}]"
            ),
            rule="Pcomp",
            children=[
                left.certificate,
                right.certificate,
                compat_under,
                compat_over,
            ],
            bounds={"universe_size": len(universe)},
        )
        cert.add("disjoint focused sets", True)
        layer = CertifiedLayer(
            left.underlay,
            left.module,
            left.overlay,
            left.relation,
            focused,
            cert,
        )
    _stamp_rule(
        cert, "Pcomp", started, window,
        universe_size=len(universe),
        focused=sorted(focused),
    )
    return layer


def pcomp_all(layers: Sequence[CertifiedLayer]) -> CertifiedLayer:
    """Fold :func:`pcomp` over per-participant certified layers.

    The paper composes all CPUs of the machine this way to reach
    ``L[D]`` before applying the soundness theorem (Fig. 5).
    """
    if not layers:
        raise ComposeError("pcomp_all needs at least one layer")
    result = layers[0]
    for layer in layers[1:]:
        result = pcomp(result, layer)
    return result


def _same_interface(a: LayerInterface, b: LayerInterface) -> bool:
    """Structural interface agreement for rule side conditions."""
    return (
        a is b
        or (
            a.name == b.name
            and a.domain == b.domain
            and set(a.prims) == set(b.prims)
            and all(a.prims[k] is b.prims[k] for k in a.prims)
        )
    )
