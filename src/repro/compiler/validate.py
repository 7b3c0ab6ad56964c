"""Thread-safe translation validation (the CompCertX correctness analog).

CompCertX is a *verified* compiler: compilation correctness is proved
once in Coq.  The Python substitution is per-function **translation
validation**: for every compiled function we check the simulation
``LasmκM_{L} ≤_id LκM_{L}`` directly — the compiled player, run over the
same layer interface under the same environment behaviours, must produce
the identical event log and return value.  That is exactly the statement
CompCertX contributes to the Fig. 5 pipeline ("thread-safe compilation":
the compiled module can replace the source module in the certified
layer), established per compilation unit instead of once-and-for-all
(see DESIGN.md §1).

Thread-safety itself — that per-thread stack frames compose into one
coherent memory — is the algebraic memory model's job
(:mod:`repro.compiler.memjoin`) and is checked by
:func:`repro.threads.stackmerge.check_stack_merge`.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..clight.ast import TranslationUnit
from ..clight.semantics import c_player

if True:  # deferred to break the asm ↔ compiler package cycle
    from typing import TYPE_CHECKING
    if TYPE_CHECKING:  # pragma: no cover
        from ..asm.ast import AsmUnit
from ..core.certificate import Certificate, CertifiedLayer, stamp_provenance
from ..core.interface import LayerInterface
from ..core.module import FuncImpl, Module
from ..core.relation import ID_REL
from ..core.simulation import SimConfig, check_sim
from ..envflags import pinned
from ..obs import span
from ..obs.metrics import MetricsWindow, inc
from .codegen import CompileError, compile_unit


def validate_function(
    interface: LayerInterface,
    c_unit: TranslationUnit,
    asm_unit,
    name: str,
    tid: int,
    config: SimConfig,
) -> Certificate:
    """Check one compiled function against its source (Def. 2.1, R = id)."""
    from ..asm.semantics import asm_player

    with span("compcertx.validate_function", function=name):
        inc("compcertx.functions_validated")
        return check_sim(
            interface,
            asm_player(asm_unit, name, c_unit.width_bits),
            interface,
            c_player(c_unit, name),
            ID_REL,
            tid,
            config,
            judgment=f"CompCertX({name}): asm ≤_id C over {interface.name}",
            rule="ThreadSafeCompilation",
        )


def _seq_player(players: Dict[str, Callable], calls: Sequence[Tuple[str, Tuple]]):
    """A player running a call sequence through per-function players."""

    def player(ctx):
        rets = []
        for index, (name, args) in enumerate(calls):
            ctx.scenario_call = index
            ret = yield from players[name](ctx, *args)
            rets.append(ret)
        return rets

    return player


def compile_and_validate(
    interface: LayerInterface,
    c_unit: TranslationUnit,
    tid: int,
    scenarios: Sequence[Tuple[str, Sequence[Tuple[str, Tuple]], SimConfig]],
    skip_uncompilable: bool = True,
):
    """Compile a unit and validate it against the source per scenario.

    ``scenarios`` are ``(label, calls, config)`` triples: each call
    sequence (respecting the functions' protocols — e.g. acquire before
    release) is run through both the source and the compiled unit under
    every bounded environment behaviour; logs and return values must
    agree exactly.  Every compiled function must be covered by at least
    one scenario.
    """
    from ..asm.semantics import asm_player

    started = time.perf_counter()
    window = MetricsWindow()
    # One engine configuration for every check_sim below, as a rule
    # application pins one for its obligations.
    with pinned(), span(
        "compcertx.compile_and_validate",
        unit=c_unit.name,
        scenarios=len(scenarios),
    ):
        asm_unit = compile_unit(c_unit, skip_uncompilable=skip_uncompilable)
        inc("compcertx.units_compiled")
        cert = Certificate(
            judgment=f"CompCertX({c_unit.name}): compiled unit ≤_id source unit",
            rule="ThreadSafeCompilation",
            bounds={"functions": sorted(asm_unit.functions)},
        )
        covered = {name for _, calls, _ in scenarios for name, _ in calls}
        for name in sorted(asm_unit.functions):
            cert.add(
                f"{name} covered by a validation scenario", name in covered
            )
        c_players = {
            name: c_player(c_unit, name) for name in asm_unit.functions
        }
        a_players = {
            name: asm_player(asm_unit, name, c_unit.width_bits)
            for name in asm_unit.functions
        }
        for label, calls, config in scenarios:
            cert.children.append(
                check_sim(
                    interface,
                    _seq_player(a_players, calls),
                    interface,
                    _seq_player(c_players, calls),
                    ID_REL,
                    tid,
                    config,
                    judgment=(
                        f"CompCertX({c_unit.name}) :: {label}: asm ≤_id C"
                    ),
                    rule="ThreadSafeCompilation",
                )
            )
    stamp_provenance(
        cert, time.perf_counter() - started, window,
        functions=sorted(asm_unit.functions),
        scenarios=len(scenarios),
    )
    return asm_unit, cert


def compiled_module(
    asm_unit, names: Iterable[str], width_bits: int = 32
) -> Module:
    """Package compiled functions as a module (for re-certification)."""
    from ..asm.semantics import asm_func_impl

    return Module(
        {
            name: asm_func_impl(asm_unit, name, width_bits)
            for name in names
        },
        name=f"{asm_unit.name}",
    )
