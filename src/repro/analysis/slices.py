"""Obligation-granular cache keys from dependency slices.

The rule-level certificate cache (``parallel/cache.py``) keys on *every*
input of a rule application, so editing one primitive invalidates the
whole rule.  This module builds finer keys: one per obligation group —
per scenario, per argument vector, per client game — keyed on the
*slice* of code the obligation can actually reach (computed by
:mod:`repro.analysis.deps`) plus the environment the game runs in
(domain, rely/guarantee, initial log and private state, the scenario or
client itself, and for a Thm 2.2 game whether reduction ran).  Editing
a primitive then only changes the keys of obligations whose slice
contains it; everything else re-loads warm.

Each builder returns an :class:`ObligationKey` — ``(parts, exact)``.
``parts`` is a tuple fed to ``canonical_fingerprint`` by the cache
layer; ``exact`` is False when the slice had to over-approximate
(dynamic call or emit name, unresolvable name), in which case the
parts embed the *whole* interfaces and module instead of the slice.
That fallback is still per-obligation keyed (so it caches correctly)
but degrades incrementality to rule-level for that obligation; the
cache layer counts it as a ``slice_miss``.

Soundness caveat, shared with the rule-level cache: canonical function
fingerprints cover bytecode, closures, and referenced functions, but
not the *values* of non-function module globals a spec might read.
``ENGINE_VERSION`` plus this file's key schema version every entry.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Tuple

from .deps import DepClosure, dependency_closure, module_resolver

#: ``(parts, exact)`` — parts for ``cache_key``, exactness of the slice.
ObligationKey = Tuple[Tuple[Any, ...], bool]

#: Bump when the key schema changes shape (parts ordering, env fields).
SLICE_SCHEMA = "repro.slice/v1"


def interface_env(iface: Any) -> Tuple[Any, ...]:
    """The non-primitive inputs of a game over ``iface``.

    Everything that shapes obligation outcomes besides the code slice:
    the thread domain, rely/guarantee, initial log, and initial private
    state.  The interface *name* participates too because judgments and
    counterexample text embed it.
    """
    return (
        "env",
        getattr(iface, "name", ""),
        tuple(sorted(getattr(iface, "domain", ()) or ())),
        getattr(iface, "rely", None),
        getattr(iface, "guar", None),
        tuple(getattr(iface, "init_log", ()) or ()),
        getattr(iface, "_init_priv", None),
    )


def _slice_parts(
    closures: Iterable[DepClosure],
    fallback: Tuple[Any, ...],
) -> Tuple[Tuple[Any, ...], bool]:
    """Merge slice closures into key parts, or fall back whole."""
    entries: List[Tuple[str, str, Any]] = []
    exact = True
    for closure in closures:
        exact &= closure.exact
        entries.extend(closure.sorted_entries())
    if not exact:
        return ("whole",) + fallback, False
    dedup = {(role, name): obj for role, name, obj in entries}
    return (
        "slice",
        tuple((role, name, dedup[(role, name)]) for role, name in sorted(dedup)),
    ), True


def _called_names(calls: Iterable[Any]) -> Tuple[str, ...]:
    """The primitive names a scenario/client call list mentions."""
    names: List[str] = []
    for call in calls:
        name = call[0] if isinstance(call, tuple) else call
        names.append(str(name))
    return tuple(names)


def scenario_obligation_key(
    *,
    kind: str,
    rule: str,
    judgment: str,
    low: Any,
    high: Any,
    relation: Any,
    tid: int,
    scenario: Any,
    module: Any = None,
) -> ObligationKey:
    """Key one scenario of a ``Fun*``/interface-sim rule application.

    The low side resolves calls the way the scenario's impl player does:
    module functions first (under a ``Fun*`` lift), then low-interface
    primitives.  The high side resolves in the overlay.
    """
    names = _called_names(getattr(scenario, "calls", ()))
    low_resolve = module_resolver(module, low)
    low_closure = dependency_closure(
        [(name, low_resolve(name)) for name in names], resolve=low_resolve
    )
    high_prims = getattr(high, "prims", {})
    high_closure = dependency_closure(
        [(name, high_prims.get(name)) for name in names], resolve=high_prims.get
    )
    slice_part, exact = _slice_parts(
        (low_closure, high_closure), (low, module, high)
    )
    parts: Tuple[Any, ...] = (
        SLICE_SCHEMA,
        kind,
        rule,
        judgment,
        relation,
        tid,
        ("scenario", getattr(scenario, "label", ""), scenario),
        interface_env(low),
        interface_env(high),
        slice_part,
    )
    return parts, exact


def sim_args_obligation_key(
    *,
    kind: str,
    judgment: str,
    low: Any,
    high: Any,
    name: str,
    relation: Any,
    tid: int,
    config: Any,
    args: Tuple[Any, ...],
    impl: Any,
) -> ObligationKey:
    """Key one argument vector of a ``Fun`` lift's ``check_sim``
    obligation.

    ``impl`` is the module function under the lift; its slice runs over
    the low interface.
    """
    low_prims = getattr(low, "prims", {})
    low_closure = dependency_closure([(name, impl)], resolve=low_prims.get)
    high_prims = getattr(high, "prims", {})
    high_closure = dependency_closure(
        [(name, high_prims.get(name))], resolve=high_prims.get
    )
    slice_part, exact = _slice_parts((low_closure, high_closure), (low, impl, high))
    parts: Tuple[Any, ...] = (
        SLICE_SCHEMA,
        kind,
        judgment,
        relation,
        tid,
        ("args", tuple(args)),
        ("config", config),
        interface_env(low),
        interface_env(high),
        slice_part,
    )
    return parts, exact


def client_obligation_key(
    *,
    underlay: Any,
    module: Any,
    overlay: Any,
    relation: Any,
    client: Any,
    fuel: int,
    max_rounds: int,
    max_runs: int,
    require_progress: bool,
    reduce: bool,
) -> ObligationKey:
    """Key one client program of a Thm 2.2 soundness check.

    The low game runs the client over ``link(underlay, module)``; the
    high game runs the same client over the overlay.  Both slices (and
    both environments) participate, as do every enumeration bound —
    changing ``fuel`` legitimately changes outcomes.
    """
    names: List[str] = []
    for _tid, calls in sorted(client.items()):
        names.extend(_called_names(calls))
    low_resolve = module_resolver(module, underlay)
    low_closure = dependency_closure(
        [(name, low_resolve(name)) for name in names], resolve=low_resolve
    )
    overlay_prims = getattr(overlay, "prims", {})
    high_closure = dependency_closure(
        [(name, overlay_prims.get(name)) for name in names],
        resolve=overlay_prims.get,
    )
    slice_part, exact = _slice_parts(
        (low_closure, high_closure), (underlay, module, overlay)
    )
    parts: Tuple[Any, ...] = (
        SLICE_SCHEMA,
        "soundness-client",
        relation,
        ("client", tuple(sorted((tid, tuple(calls)) for tid, calls in client.items()))),
        ("bounds", fuel, max_rounds, max_runs, require_progress),
        interface_env(underlay),
        interface_env(overlay),
        slice_part,
        ("reduce", reduce),
    )
    return parts, exact
