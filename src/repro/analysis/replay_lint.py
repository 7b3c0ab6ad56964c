"""Replay-purity lint (``REPRO-R4xx``).

A replay function reconstructs abstract state as a fold over the log
(paper §2: "the log determines the state").  That contract only holds
when the fold's ``init``/``step`` are *pure in the log*: closed over
the log argument and immutable constants, free of nondeterminism
sources, and free of mutable default arguments that would leak state
between replays.  The incremental memo of ``ReplayFn`` adds one more
premise: ``step`` returns a new state and never mutates the one it was
given, because that object is the checkpoint later queries resume from
(``REPRO-R404``).

These checks run over the ``ReplayFn`` wrapper from
:mod:`repro.core.replay` by duck-typing on its ``name``/``_init``/
``_step`` attributes — nothing from :mod:`repro.core` is imported.
"""

from __future__ import annotations

import types
from typing import Any, List

from .effects import analyze_function, param_mutations
from .findings import LintFinding, finding, suppressed_rules

_IMMUTABLE_SCALARS = (
    int, float, complex, str, bytes, bool, type(None), range,
)
_MUTABLE_DEFAULTS = (list, dict, set, bytearray)


def _is_immutable(value: Any, _depth: int = 0) -> bool:
    """Conservatively decide whether a captured value is immutable.

    Functions, types, and frozen dataclasses (events, prims) count as
    immutable; containers are immutable when every element is.  Unknown
    object types count as mutable — the rule is allowed to over-warn
    here because a suppression comment can record the review.
    """
    if _depth > 4:
        return False
    if isinstance(value, _IMMUTABLE_SCALARS):
        return True
    if isinstance(value, (types.FunctionType, types.BuiltinFunctionType)):
        return True
    if isinstance(value, types.ModuleType):
        return True  # module *identity* is stable; nondet reads are R402's job
    if isinstance(value, type):
        return True
    if isinstance(value, (tuple, frozenset)):
        return all(_is_immutable(v, _depth + 1) for v in value)
    params = getattr(type(value), "__dataclass_params__", None)
    if params is not None and getattr(params, "frozen", False):
        return True
    if type(value).__name__ == "Log" and hasattr(value, "events"):
        return True  # interned, append-only-by-copy log values
    return False


def lint_replay_fn(replay_fn: Any) -> List[LintFinding]:
    """R401–R404 over one ``ReplayFn``'s init and step."""
    out: List[LintFinding] = []
    name = getattr(replay_fn, "name", repr(replay_fn))
    for role in ("init", "step"):
        fn = getattr(replay_fn, f"_{role}", None)
        code = getattr(fn, "__code__", None)
        if code is None:
            continue
        supp = suppressed_rules(fn)
        obj = f"{name}.{role}"
        file, line = code.co_filename, code.co_firstlineno

        closure = getattr(fn, "__closure__", None) or ()
        for var, cell in zip(code.co_freevars, closure):
            try:
                value = cell.cell_contents
            except ValueError:  # empty cell
                continue
            if not _is_immutable(value):
                out.append(finding(
                    "REPRO-R401",
                    f"{role} closes over {var!r} = "
                    f"{type(value).__name__} instance; replaying the "
                    f"same log twice may observe different states",
                    file=file, line=line, obj=obj,
                    suppressed="REPRO-R401" in supp,
                ))

        summary = analyze_function(fn)
        for description, nline in summary.nondet:
            out.append(finding(
                "REPRO-R402",
                f"{role} reads nondeterminism source {description}; "
                f"the fold over a log would not be a function of the log",
                file=file, line=nline or line, obj=obj,
                suppressed="REPRO-R402" in supp,
            ))

        for default in getattr(fn, "__defaults__", None) or ():
            if isinstance(default, _MUTABLE_DEFAULTS):
                out.append(finding(
                    "REPRO-R403",
                    f"{role} has a mutable default argument "
                    f"({type(default).__name__}); mutation would leak "
                    f"state between replays",
                    file=file, line=line, obj=obj,
                    suppressed="REPRO-R403" in supp,
                ))

        if role == "step":
            for what, mline in param_mutations(fn):
                out.append(finding(
                    "REPRO-R404",
                    f"step mutates its state argument in place ({what}); "
                    f"the memoized checkpoint and every result already "
                    f"returned would change with it",
                    file=file, line=mline or line, obj=obj,
                    suppressed="REPRO-R404" in supp,
                ))
    return out
