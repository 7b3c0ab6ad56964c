"""Interprocedural dependency slices over effect footprints.

:mod:`repro.analysis.effects` summarizes *one* code object; this module
closes those summaries transitively.  Starting from a set of roots
(primitives an obligation's players call, or a module function under
``Fun`` lift), it follows every statically resolvable edge —

* ``ctx.call(<name>)`` sites, resolved through the caller-supplied
  resolver (module functions shadow underlay primitives, exactly as
  :func:`repro.core.module.link` arranges at run time),
* same-unit mini-C/asm calls (``OP_LOCAL_CALL``), resolved through the
  translation unit fished out of the impl's interpreter closure,
* directly referenced Python functions (helpers, wrapped payloads),

and accumulates the *slice*: every primitive, implementation, and helper
function the obligation can possibly execute, plus the event names they
emit and whether any opens a critical bracket.  Two consumers sit on
top:

* :mod:`repro.analysis.slices` fingerprints the slice to key the
  obligation-granular certificate cache, and
* :mod:`repro.analysis.independence` compares the emit footprints of
  primitives for the lint catalog's may-race warnings.

``exact`` degrades to ``False`` the moment any callee, emit name, or
referenced object resists resolution; consumers must then fall back to
a whole-rule over-approximation (see DESIGN.md §5 for the soundness
argument).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Optional, Set, Tuple

from .effects import (
    OP_CALL,
    OP_ENTER,
    OP_EXIT,
    OP_LOCAL_CALL,
    EffectSummary,
    analyze_ast_function,
    analyze_function,
    analyze_impl,
    unit_of_impl,
)

#: Resolves a called name to a ``Prim``, ``FuncImpl``, or ``None``.
Resolver = Callable[[str], Any]


@dataclass
class DepClosure:
    """The transitive dependency slice of one obligation's code.

    ``entries`` maps ``(role, name)`` — role one of ``"prim"``,
    ``"impl"``, ``"fn"`` — to the live object, so consumers can
    fingerprint exactly the code the obligation can reach.  ``emits``
    is the union of the slice's emitted event names, ``critical``
    whether any part opens a critical bracket, and ``exact`` whether
    every edge and emit name resolved.
    """

    entries: Dict[Tuple[str, str], Any] = field(default_factory=dict)
    emits: Set[str] = field(default_factory=set)
    exact: bool = True
    critical: bool = False

    def sorted_entries(self) -> Tuple[Tuple[str, str, Any], ...]:
        """Deterministic ``(role, name, object)`` listing for keying."""
        return tuple(
            (role, name, self.entries[(role, name)])
            for role, name in sorted(self.entries)
        )


def dependency_closure(
    roots: Iterable[Tuple[str, Any]],
    resolve: Optional[Resolver] = None,
) -> DepClosure:
    """Close ``roots`` (``(name, object)`` pairs) over all call edges.

    ``resolve`` maps a ``ctx.call`` name to its target in the machine
    the obligation actually runs on — for a linked module that means
    module functions first, then underlay primitives.  A root whose
    object is ``None`` (an unresolvable call name) immediately makes the
    closure inexact.
    """
    closure = DepClosure()
    seen: Set[int] = set()
    for name, obj in roots:
        if obj is None:
            closure.exact = False
            continue
        _reach(obj, name, resolve, None, closure, seen)
    return closure


def _reach(
    target: Any,
    name: str,
    resolve: Optional[Resolver],
    local: Optional[Resolver],
    closure: DepClosure,
    seen: Set[int],
) -> None:
    if id(target) in seen:
        return
    seen.add(id(target))

    if hasattr(target, "spec") and hasattr(target, "kind"):  # Prim
        closure.entries[("prim", name)] = target
        if getattr(target, "enters_critical", False) or getattr(
            target, "exits_critical", False
        ):
            closure.critical = True
        _reach_function(target.spec, resolve, local, closure, seen)
        return
    if hasattr(target, "player") and hasattr(target, "lang"):  # FuncImpl
        closure.entries[("impl", name)] = target
        unit = unit_of_impl(target)
        unit_fns = getattr(unit, "functions", None)
        if isinstance(unit_fns, dict):
            bound: Dict[str, Any] = unit_fns
            local = bound.get
        summary = analyze_impl(target)
        _absorb(summary, resolve, local, closure, seen)
        return
    if callable(target):
        qualname = getattr(target, "__qualname__", getattr(target, "__name__", name))
        module = getattr(target, "__module__", "")
        closure.entries[("fn", f"{module}.{qualname}")] = target
        _reach_function(target, resolve, local, closure, seen)
        return
    if hasattr(target, "body"):  # mini-C / asm AST function (same unit)
        summary = analyze_ast_function(target, name=name)
        _absorb(summary, resolve, local, closure, seen)
        return
    closure.exact = False


def _reach_function(
    fn: Any,
    resolve: Optional[Resolver],
    local: Optional[Resolver],
    closure: DepClosure,
    seen: Set[int],
) -> None:
    summary = analyze_function(fn)
    _absorb(summary, resolve, local, closure, seen)


def _absorb(
    summary: EffectSummary,
    resolve: Optional[Resolver],
    local: Optional[Resolver],
    closure: DepClosure,
    seen: Set[int],
) -> None:
    closure.emits |= set(summary.emits)
    closure.exact &= not (summary.dynamic_emit or summary.dynamic_call)
    for kind, callee, _nargs, _line in summary.ops:
        if kind in (OP_ENTER, OP_EXIT):
            closure.critical = True
        elif kind == OP_CALL:
            if callee is None:
                closure.exact = False
                continue
            target = local(callee) if local is not None else None
            if target is None and resolve is not None:
                target = resolve(callee)
            if target is None:
                closure.exact = False
                continue
            _reach(target, callee, resolve, local, closure, seen)
        elif kind == OP_LOCAL_CALL:
            target = (
                local(callee) if (local is not None and callee is not None) else None
            )
            if target is None:
                closure.exact = False
                continue
            _reach(target, str(callee), resolve, local, closure, seen)
    for ref in summary.referenced_fns:
        _reach(ref, getattr(ref, "__name__", "<ref>"), resolve, local, closure, seen)


def module_resolver(module: Any, interface: Any) -> Resolver:
    """The run-time call resolution order of a linked machine.

    ``link(interface, module)`` turns module functions into primitives
    of the extended interface, so a called name hits the module first
    and falls through to the interface.  Either part may be ``None``.
    """

    def resolve(name: str) -> Any:
        if module is not None:
            impl = module.funcs.get(name)
            if impl is not None:
                return impl
        if interface is not None:
            return interface.prims.get(name)
        return None

    return resolve
