"""Program modules: the ``M`` in ``L1 ⊢_R M : L2``.

A module is a finite map from function names to implementations.  An
implementation is ultimately a *player* generator (see
:mod:`repro.core.context`); it may originate from

* mini-C source interpreted by :mod:`repro.clight.semantics`,
* mini-assembly interpreted by :mod:`repro.asm.semantics`, or
* a specification strategy written directly in Python (used when a layer
  is introduced purely by abstraction, with no new code).

Modules support the paper's linking operator ``⊕`` (disjoint union) and
can be *linked* onto an interface, turning each function into a primitive
of an extended interface — that is how the behaviour ``[[P ⊕ M]]_{L}`` is
executed (the client program calls module functions exactly as it would
call primitives of the overlay).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Optional

from .errors import ComposeError
from .interface import LayerInterface, Prim, SHARED


@dataclass
class FuncImpl:
    """One function implementation inside a module.

    ``player`` is a generator function ``(ctx, *args) -> ret`` executing
    the body over the *underlay* interface.  ``source`` keeps the original
    syntax object (C AST, asm function, or None for Python specs) for
    inventory statistics; ``lang`` tags its origin.
    """

    name: str
    player: Callable
    source: Any = None
    lang: str = "spec"  # "c" | "asm" | "spec"

    def __repr__(self):
        return f"FuncImpl({self.name}:{self.lang})"

    def location(self) -> str:
        """``file:line`` of the implementation body, for lint findings."""
        code = getattr(self.player, "__code__", None)
        if code is not None:
            return f"{code.co_filename}:{code.co_firstlineno}"
        return f"<{self.lang}:{self.name}>"


class Module:
    """A finite map of function implementations, with ``⊕``."""

    def __init__(self, funcs: Optional[Dict[str, FuncImpl]] = None, name: str = ""):
        self.funcs: Dict[str, FuncImpl] = dict(funcs or {})
        self.name = name or "+".join(sorted(self.funcs)) or "∅"

    @classmethod
    def single(cls, impl: FuncImpl) -> "Module":
        return cls({impl.name: impl}, name=impl.name)

    @classmethod
    def empty(cls) -> "Module":
        return cls({}, name="∅")

    def oplus(self, other: "Module") -> "Module":
        """``M ⊕ N`` — union; names must be disjoint (or identical entries)."""
        merged = dict(self.funcs)
        for key, impl in other.funcs.items():
            if key in merged and merged[key] is not impl:
                raise ComposeError(f"module linking conflict on {key!r}")
            merged[key] = impl
        return Module(merged, name=f"({self.name} ⊕ {other.name})")

    __add__ = oplus

    def __contains__(self, name: str) -> bool:
        return name in self.funcs

    def __iter__(self):
        return iter(self.funcs.values())

    def __len__(self):
        return len(self.funcs)

    def names(self) -> Iterable[str]:
        return self.funcs.keys()

    def __repr__(self):
        return f"Module({self.name})"


def link(interface: LayerInterface, module: Module, name: Optional[str] = None) -> LayerInterface:
    """``P ⊕ M`` executability: extend an interface with module functions.

    Each module function becomes a primitive whose specification runs the
    implementation body (over the same interface, so module functions may
    call the interface's primitives — and, for mutually layered modules,
    previously linked functions).  Used to compute ``[[P ⊕ M]]_{L[D]}``.
    """
    prims = []
    for impl in module:
        if interface.has(impl.name):
            raise ComposeError(
                f"cannot link {impl.name!r}: already a primitive of {interface.name}"
            )
        player = impl.player

        def spec(ctx, *args, _player=player):
            ret = yield from _player(ctx, *args)
            return ret

        spec.__linked_player__ = player
        prims.append(Prim(impl.name, spec, kind=SHARED, cycle_cost=1,
                          doc=f"linked from module {module.name}"))
    return interface.extend(name or f"{interface.name}+{module.name}", prims)
