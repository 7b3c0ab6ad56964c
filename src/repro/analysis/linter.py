"""Lint orchestration: rule-application lint, module scanning.

Two entry points:

* :func:`lint_rule_inputs` — called by the Fig. 9 rule constructors in
  :mod:`repro.core.calculus` before a judgment is discharged.  Returns
  a :class:`~repro.analysis.findings.LintReport`; the caller decides
  what to do with it based on the mode.
* :func:`lint_namespace` — used by the CLI to sweep a Python module's
  namespace for lintable objects (primitives, interfaces, modules,
  replay functions, player-shaped functions).

The mode is a field of the pinned engine configuration
(:func:`repro.envflags.engine_config`): the ``REPRO_LINT`` environment
variable (``strict`` | ``record`` | ``off``, default ``record``), or
``repro.envflags.pinned(lint=...)`` for the extent of a block.
``strict`` turns unsuppressed ERROR findings into refused certificates;
``record`` only stamps findings into certificate provenance when
observability is on; ``off`` skips the pass entirely.
"""

from __future__ import annotations

import types
from typing import Any, Iterable, List, Set

from . import discipline, replay_lint
from .effects import analyze_function
from .findings import (
    LintFinding,
    LintReport,
    dedupe,
    sort_findings,
    suppressed_rules,
)

def lint_rule_inputs(
    *,
    mode: str = "record",
    underlay: Any = None,
    module: Any = None,
    overlay: Any = None,
    relation: Any = None,
    interfaces: Iterable[Any] = (),
) -> LintReport:
    """Lint the inputs of one Fig. 9 rule application.

    ``module`` (with ``underlay``/``overlay``/``relation``) engages the
    layer-discipline checks; every interface in ``interfaces`` gets the
    per-primitive checks.  All findings land in one report.
    """
    report = LintReport(mode=mode)
    if module is not None and underlay is not None and overlay is not None:
        report.extend(discipline.lint_module_application(
            underlay, module, overlay, relation,
        ))
        report.note_checked("module_functions", len(module.funcs))
    for iface in interfaces:
        if iface is None:
            continue
        report.extend(discipline.lint_interface(iface))
        report.note_checked("interfaces")
        report.note_checked("primitives", len(iface.prims))
    report.findings = sort_findings(dedupe(report.findings))
    return report


# --- namespace scanning (CLI) ------------------------------------------------


def _is_player_like(fn: Any) -> bool:
    """Functions whose first parameter is ``ctx`` are players/specs."""
    code = getattr(fn, "__code__", None)
    if code is None or code.co_argcount == 0:
        return False
    return code.co_varnames[0] == "ctx"


def _lint_function(fn: Any, obj: str) -> List[LintFinding]:
    summary = analyze_function(fn)
    supp = suppressed_rules(getattr(fn, "__wrapped__", fn))
    return discipline.effect_findings(summary, obj=obj, suppressed=supp)


def lint_namespace(namespace: Any, name: str = "") -> LintReport:
    """Sweep one imported module's namespace for lintable objects.

    Recognizes, by duck-typing:

    * ``Prim`` instances (``.name``/``.spec``/``.kind``),
    * ``LayerInterface`` instances (``.prims`` dict + ``.rely``/``.guar``),
    * ``Module`` instances (``.funcs`` of ``FuncImpl``),
    * ``ReplayFn`` instances (``.name`` + ``._init``/``._step``),
    * plain functions defined in the module whose first parameter is
      ``ctx`` (players and specs not yet wrapped in a ``Prim``).

    Interfaces and modules found in a namespace are linted without an
    underlay in hand, so only resolution-free rules fire here; the
    deep L1xx checks run at rule-application time.
    """
    mod_name = name or getattr(namespace, "__name__", "<namespace>")
    report = LintReport(mode="record")
    seen: Set[int] = set()
    for attr in sorted(vars(namespace)):
        if attr.startswith("__"):
            continue
        value = vars(namespace)[attr]
        if id(value) in seen:
            continue
        seen.add(id(value))

        if isinstance(value, types.ModuleType):
            continue
        if _looks_like_interface(value):
            report.extend(discipline.lint_interface(value))
            report.note_checked("interfaces")
            report.note_checked("primitives", len(value.prims))
        elif _looks_like_prim(value):
            report.extend(discipline.lint_prim(
                value, owner=f"{mod_name}.{attr}",
            ))
            report.note_checked("primitives")
        elif _looks_like_module(value):
            for fname in sorted(value.funcs):
                impl = value.funcs[fname]
                if impl.lang == "spec":
                    report.extend(_lint_function(
                        impl.player, obj=f"{value.name}.{fname}",
                    ))
            report.note_checked("modules")
        elif _looks_like_replay_fn(value):
            report.extend(replay_lint.lint_replay_fn(value))
            report.note_checked("replay_functions")
        elif isinstance(value, types.FunctionType):
            if getattr(value, "__module__", None) != mod_name:
                continue
            report.note_checked("functions")
            if _is_player_like(value):
                report.extend(_lint_function(value, obj=f"{mod_name}.{attr}"))
    report.findings = sort_findings(dedupe(report.findings))
    return report


def _looks_like_prim(value: Any) -> bool:
    return (
        not isinstance(value, type)
        and hasattr(value, "spec")
        and hasattr(value, "kind")
        and hasattr(value, "enters_critical")
        and isinstance(getattr(value, "name", None), str)
    )


def _looks_like_interface(value: Any) -> bool:
    return (
        not isinstance(value, type)
        and isinstance(getattr(value, "prims", None), dict)
        and hasattr(value, "rely")
        and hasattr(value, "guar")
    )


def _looks_like_module(value: Any) -> bool:
    funcs = getattr(value, "funcs", None)
    if not isinstance(funcs, dict) or isinstance(value, type):
        return False
    return all(
        hasattr(impl, "player") and hasattr(impl, "lang")
        for impl in funcs.values()
    ) and bool(funcs)


def _looks_like_replay_fn(value: Any) -> bool:
    return (
        not isinstance(value, type)
        and callable(getattr(value, "_init", None))
        and callable(getattr(value, "_step", None))
        and isinstance(getattr(value, "name", None), str)
    )
