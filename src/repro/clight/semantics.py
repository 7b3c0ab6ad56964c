"""Operational semantics of mini-C, parameterized by a layer interface.

The interpreter turns a :class:`~repro.clight.ast.CFunction` into a
*player* (see :mod:`repro.core.context`): primitive calls resolve against
the underlay interface and may query the environment; everything else is
a silent private transition, exactly as in the paper's machine model
("the transitions for instructions only change ρ, pm, and m", §3.1).

State mapping:

* locals/parameters — a per-invocation environment dict (the stack
  frame),
* CPU-private globals — ``ctx.priv["globals"]``, initialized per
  participant from the translation unit's initializer thunks,
* pulled shared blocks — the push/pull local copy
  (:func:`repro.machine.sharedmem.local_copy`); accessing a block that
  has not been pulled gets stuck (the data-race discipline).

Integer arithmetic wraps at the unit's width.  Every statement consumes
fuel and charges one simulated cycle (the cost model behind the §6
performance evaluation).

Each function body is translated once, on its first call, into nested
Python closures.  Operators, width masks, names and place shapes are
resolved by the translation; only statements containing a ``Call`` (the
only ones that can reach a query point) become generator functions, so
silent steps cost plain function calls.  Translation itself never gets
stuck: an ill-formed node translates into code that raises its
:class:`Stuck` when, and only if, it runs.

A body that can suspend keeps its state where the game engine can copy
it (:mod:`repro.core.playerstate`): :meth:`Interp.run_function` pushes
an :class:`Activation` on ``ctx.frames``, and each ``Call`` records its
:class:`CallSite` and argument values there before it calls.  The
translation gives every call site its continuation, the rest of each
enclosing statement up to the function body, so an activation can be
re-entered from its record alone.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Dict, List, Sequence, Tuple

from ..core.context import ExecutionContext
from ..core.errors import Stuck
from ..core.machint import IntWidth
from ..machine.sharedmem import local_copy
from .ast import (
    Arr,
    Assert,
    Assign,
    Binop,
    Break,
    Call,
    CFunction,
    Const,
    Continue,
    Expr,
    Fld,
    Glob,
    If,
    Return,
    Seq,
    Shared,
    Skip,
    Stmt,
    TranslationUnit,
    Tup,
    Unop,
    Var,
    While,
)

# Control-flow outcomes of a translated statement: ``None`` when it
# completes normally, else a ``(kind, value)`` signal unwinding to the
# enclosing loop or function.
_BREAK = ("break", None)
_CONTINUE = ("continue", None)
_RETURN = "return"

#: Binary operators whose result wraps at the unit's width.
_WRAPPING = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "&": operator.and_,
    "|": operator.or_,
    "^": operator.xor,
}
#: Comparisons (result 1 or 0).
_COMPARISONS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
#: Shifts: the distance is taken modulo the width; the result wraps.
_SHIFTS = {"<<": operator.lshift, ">>": operator.rshift}
#: Division and modulo: a zero divisor gets stuck; the result wraps.
_DIVISIONS = {
    "/": (operator.floordiv, "division by zero"),
    "%": (operator.mod, "modulo by zero"),
}
#: Unary operators whose result wraps at the unit's width.
_WRAPPING_UNARY = {"-": operator.neg, "~": operator.invert}

GLOBALS_KEY = "globals"

#: A translated expression, place or statement takes ``(ctx, env)``.
Code = Callable[..., Any]


class Activation:
    """One running function body that can suspend (on ``ctx.frames``).

    ``site`` and ``values`` are the ``Call`` the body is in and its
    argument values; every suspension happens inside a call.
    """

    __slots__ = ("interp", "name", "env", "site", "values")

    def __init__(self, interp: "Interp", name: str, env: Dict[str, Any]):
        self.interp = interp
        self.name = name
        self.env = env
        self.site: Any = None
        self.values: Tuple[Any, ...] = ()


class CallSite:
    """One translated ``Call``: its callee and its continuation.

    ``resume(ctx, env, ret)`` is a generator function that stores the
    call's result and runs the rest of every enclosing statement up to
    the function body, returning the body's control signal.
    """

    __slots__ = ("name", "resume")

    def __init__(self, name: str, resume: Code):
        self.name = name
        self.resume = resume


def unit_globals(ctx: ExecutionContext, unit: TranslationUnit) -> Dict[str, Any]:
    """This participant's instance of the unit's globals (lazily built)."""
    store = ctx.priv.setdefault(GLOBALS_KEY, {})
    for name, init in unit.globals.items():
        if name not in store:
            store[name] = init() if callable(init) else init
    return store


class Interp:
    """One translation unit interpreted over a layer interface."""

    def __init__(self, unit: TranslationUnit):
        self.unit = unit
        self.width = IntWidth(unit.width_bits)
        #: ``name -> (CFunction, body, body is a generator function)``,
        #: filled by :meth:`run_function`.  Content fingerprints
        #: (:mod:`repro.parallel.canonical`) skip it, so an impl digests
        #: the same before and after its first run.
        self._compiled: Dict[str, Tuple[CFunction, Code, bool]] = {}

    def run_function(self, ctx: ExecutionContext, name: str, args, resume=None):
        """Run function ``name`` on ``args`` (a generator; the player body).

        ``resume`` re-enters a suspended activation instead:
        ``(env, site, values, inner)`` from its record, where ``inner``
        re-enters the same-unit callee it is suspended in, or is None
        when that callee is a primitive, which is restarted at its query.
        """
        fn = self.unit.functions.get(name)
        if fn is None:
            raise Stuck(f"undefined function {name!r} in unit {self.unit.name}")
        if resume is None and len(args) != len(fn.params):
            raise Stuck(
                f"{name} expects {len(fn.params)} args, got {len(args)}"
            )
        entry = self._compiled.get(name)
        if entry is None or entry[0] is not fn:
            entry = self._compiled[name] = (fn, *self._stmt(fn.body, ()))
        _fn, body, generator = entry
        if not generator:
            signal = body(ctx, dict(zip(fn.params, args)))
        elif resume is None:
            env = dict(zip(fn.params, args))
            ctx.frames.append(Activation(self, name, env))
            signal = yield from body(ctx, env)
            ctx.frames.pop()
        else:
            env, site, values, inner = resume
            activation = Activation(self, name, env)
            activation.site, activation.values = site, values
            ctx.frames.append(activation)
            if inner is not None:
                ret = yield from self.run_function(ctx, site.name, values, inner)
            else:
                ret = yield from ctx.restart_call(site.name, *values)
            signal = yield from site.resume(ctx, env, ret)
            ctx.frames.pop()
        if signal is None:
            return None
        if signal[0] == _RETURN:
            return signal[1]
        raise Stuck(f"{name}: {signal[0]} outside a loop")

    # -- expressions (pure): ``code(ctx, env) -> value`` -------------------------

    def _expr(self, expr: Expr) -> Code:
        if isinstance(expr, Const):
            value = expr.value

            def const(ctx, env):
                return value

            return const
        if isinstance(expr, Var):
            name = expr.name

            def local(ctx, env):
                try:
                    return env[name]
                except KeyError:
                    raise Stuck(f"undefined local {name!r}") from None

            return local
        if isinstance(expr, Glob):
            name, unit = expr.name, self.unit

            def glob(ctx, env):
                store = unit_globals(ctx, unit)
                if name not in store:
                    raise Stuck(f"undefined global {name!r}")
                return store[name]

            return glob
        if isinstance(expr, Shared):
            loc = self._expr(expr.loc)

            def shared(ctx, env):
                key = loc(ctx, env)
                copies = local_copy(ctx)
                if key not in copies:
                    raise Stuck(
                        f"access to shared block {key!r} without ownership "
                        f"(missing pull)"
                    )
                return copies[key]

            return shared
        if isinstance(expr, Tup):
            return self._items(expr.items)
        if isinstance(expr, Arr):
            base, index = self._expr(expr.base), self._expr(expr.index)

            def element(ctx, env):
                container = base(ctx, env)
                key = index(ctx, env)
                try:
                    return container[key]
                except (TypeError, IndexError, KeyError) as err:
                    raise Stuck(f"bad array access {expr}: {err}") from None

            return element
        if isinstance(expr, Fld):
            base, fieldname = self._expr(expr.base), expr.fieldname

            def field(ctx, env):
                container = base(ctx, env)
                try:
                    return container[fieldname]
                except (TypeError, KeyError) as err:
                    raise Stuck(f"bad field access {expr}: {err}") from None

            return field
        if isinstance(expr, Unop):
            return self._unop(expr.op, self._expr(expr.arg))
        if isinstance(expr, Binop):
            return self._binop(
                expr.op, self._expr(expr.left), self._expr(expr.right)
            )

        def unknown(ctx, env):
            raise Stuck(f"cannot evaluate expression {expr!r}")

        return unknown

    def _items(self, exprs: Sequence[Expr]) -> Code:
        """A tuple of expressions, evaluated left to right."""
        codes = [self._expr(item) for item in exprs]
        if not codes:
            def items(ctx, env):
                return ()
        elif len(codes) == 1:
            (first,) = codes

            def items(ctx, env):
                return (first(ctx, env),)
        elif len(codes) == 2:
            first, second = codes

            def items(ctx, env):
                return (first(ctx, env), second(ctx, env))
        elif len(codes) == 3:
            first, second, third = codes

            def items(ctx, env):
                return (first(ctx, env), second(ctx, env), third(ctx, env))
        else:
            def items(ctx, env):
                return tuple([code(ctx, env) for code in codes])
        return items

    def _unop(self, op: str, arg: Code) -> Code:
        mask = self.width.modulus - 1
        if op == "!":
            def unop(ctx, env):
                return 0 if arg(ctx, env) else 1
        elif op in _WRAPPING_UNARY:
            apply = _WRAPPING_UNARY[op]

            def unop(ctx, env):
                return apply(arg(ctx, env)) & mask
        else:
            def unop(ctx, env):
                arg(ctx, env)
                raise Stuck(f"unknown unary operator {op!r}")
        return unop

    def _binop(self, op: str, left: Code, right: Code) -> Code:
        mask = self.width.modulus - 1
        if op == "&&":
            def binop(ctx, env):
                return 1 if (left(ctx, env) and right(ctx, env)) else 0
        elif op == "||":
            def binop(ctx, env):
                return 1 if (left(ctx, env) or right(ctx, env)) else 0
        elif op in _COMPARISONS:
            compare = _COMPARISONS[op]

            def binop(ctx, env):
                return 1 if compare(left(ctx, env), right(ctx, env)) else 0
        elif op in _WRAPPING:
            apply = _WRAPPING[op]

            def binop(ctx, env):
                return apply(left(ctx, env), right(ctx, env)) & mask
        elif op in _DIVISIONS:
            apply, message = _DIVISIONS[op]

            def binop(ctx, env):
                dividend, divisor = left(ctx, env), right(ctx, env)
                if divisor == 0:
                    raise Stuck(message)
                return apply(dividend, divisor) & mask
        elif op in _SHIFTS:
            apply, bits = _SHIFTS[op], max(self.width.bits, 1)

            def binop(ctx, env):
                value, distance = left(ctx, env), right(ctx, env)
                return apply(value, distance % bits) & mask
        else:
            def binop(ctx, env):
                left(ctx, env)
                right(ctx, env)
                raise Stuck(f"unknown binary operator {op!r}")
        return binop

    # -- places (lvalues): ``store(ctx, env, value)`` ------------------------------

    def _place(self, place: Expr) -> Code:
        if isinstance(place, Var):
            name = place.name

            def store(ctx, env, value):
                env[name] = value
        elif isinstance(place, Glob):
            name, unit = place.name, self.unit

            def store(ctx, env, value):
                unit_globals(ctx, unit)[name] = value
        elif isinstance(place, Shared):
            loc = self._expr(place.loc)

            def store(ctx, env, value):
                key = loc(ctx, env)
                copies = local_copy(ctx)
                if key not in copies:
                    raise Stuck(
                        f"write to shared block {key!r} without ownership "
                        f"(missing pull)"
                    )
                copies[key] = value
        elif isinstance(place, Arr):
            base, index = self._expr(place.base), self._expr(place.index)

            def store(ctx, env, value):
                container = base(ctx, env)
                container[index(ctx, env)] = value
        elif isinstance(place, Fld):
            base, fieldname = self._expr(place.base), place.fieldname

            def store(ctx, env, value):
                base(ctx, env)[fieldname] = value
        else:
            def store(ctx, env, value):
                raise Stuck(f"not an lvalue: {place!r}")
        return store

    # -- statements: ``(code, is a generator function)`` -----------------------------
    #
    # ``code(ctx, env)`` first charges the statement's unit of fuel and
    # its cycle, then runs it and returns ``None`` or a control signal
    # (the generator kinds return it through ``StopIteration``).
    #
    # ``rest`` is what follows the statement up to the function body:
    # generator functions ``frame(ctx, env, signal) -> signal``,
    # innermost first, each finishing one enclosing statement given the
    # signal of the part inside it.  Only call sites keep it.

    def _stmt(self, stmt: Stmt, rest: Tuple[Code, ...]) -> Tuple[Code, bool]:
        if isinstance(stmt, Skip):
            def skip(ctx, env):
                ctx.consume_fuel()
                ctx.cycles += 1

            return skip, False
        if isinstance(stmt, Assign):
            store, value = self._place(stmt.place), self._expr(stmt.value)

            def assign(ctx, env):
                ctx.consume_fuel()
                ctx.cycles += 1
                store(ctx, env, value(ctx, env))

            return assign, False
        if isinstance(stmt, Seq):
            subs: List[Tuple[Code, bool]] = []
            following = rest
            for sub in reversed(stmt.stmts):
                subs.insert(0, self._stmt(sub, following))
                following = (_seq_rest(tuple(subs)), *rest)
            if any(generator for _code, generator in subs):
                def seq(ctx, env):
                    ctx.consume_fuel()
                    ctx.cycles += 1
                    for code, generator in subs:
                        if generator:
                            signal = yield from code(ctx, env)
                        else:
                            signal = code(ctx, env)
                        if signal is not None:
                            return signal

                return seq, True
            codes = tuple(code for code, _generator in subs)

            def seq(ctx, env):
                ctx.consume_fuel()
                ctx.cycles += 1
                for code in codes:
                    signal = code(ctx, env)
                    if signal is not None:
                        return signal

            return seq, False
        if isinstance(stmt, If):
            cond = self._expr(stmt.cond)
            then, els = self._stmt(stmt.then, rest), self._stmt(stmt.els, rest)
            if then[1] or els[1]:
                def branch(ctx, env):
                    ctx.consume_fuel()
                    ctx.cycles += 1
                    code, generator = then if cond(ctx, env) else els
                    if generator:
                        return (yield from code(ctx, env))
                    return code(ctx, env)

                return branch, True
            then, els = then[0], els[0]

            def branch(ctx, env):
                ctx.consume_fuel()
                ctx.cycles += 1
                return then(ctx, env) if cond(ctx, env) else els(ctx, env)

            return branch, False
        if isinstance(stmt, While):
            # Each iteration charges one more unit of fuel on top of its
            # body's own charges.
            cond = self._expr(stmt.cond)

            def loop_rest(ctx, env, signal):
                while signal is None or signal is _CONTINUE:
                    if not cond(ctx, env):
                        return None
                    ctx.consume_fuel()
                    signal = yield from body(ctx, env)
                return None if signal is _BREAK else signal

            body, body_gen = self._stmt(stmt.body, (loop_rest, *rest))
            if body_gen:
                def loop(ctx, env):
                    ctx.consume_fuel()
                    ctx.cycles += 1
                    while cond(ctx, env):
                        ctx.consume_fuel()
                        signal = yield from body(ctx, env)
                        if signal is not None and signal is not _CONTINUE:
                            return None if signal is _BREAK else signal

                return loop, True

            def loop(ctx, env):
                ctx.consume_fuel()
                ctx.cycles += 1
                while cond(ctx, env):
                    ctx.consume_fuel()
                    signal = body(ctx, env)
                    if signal is not None and signal is not _CONTINUE:
                        return None if signal is _BREAK else signal

            return loop, False
        if isinstance(stmt, (Break, Continue)):
            signal = _BREAK if isinstance(stmt, Break) else _CONTINUE

            def jump(ctx, env):
                ctx.consume_fuel()
                ctx.cycles += 1
                return signal

            return jump, False
        if isinstance(stmt, Return):
            value = self._expr(Const(None) if stmt.value is None else stmt.value)

            def ret(ctx, env):
                ctx.consume_fuel()
                ctx.cycles += 1
                return (_RETURN, value(ctx, env))

            return ret, False
        if isinstance(stmt, Call):
            name, unit, args = stmt.fn, self.unit, self._items(stmt.args)
            store = self._place(stmt.dst) if stmt.dst is not None else None

            def after(ctx, env, ret):
                if store is not None:
                    store(ctx, env, ret)
                signal = None
                for frame in rest:
                    signal = yield from frame(ctx, env, signal)
                return signal

            site = CallSite(name, after)

            def call(ctx, env):
                ctx.consume_fuel()
                ctx.cycles += 1
                values = args(ctx, env)
                activation = ctx.frames[-1]
                activation.site = site
                activation.values = values
                if name in unit.functions:
                    ret = yield from self.run_function(ctx, name, values)
                else:
                    # An underlay primitive: the callee's specification
                    # decides whether this is a query point.
                    ret = yield from ctx.call(name, *values)
                if store is not None:
                    store(ctx, env, ret)

            return call, True
        if isinstance(stmt, Assert):
            cond = self._expr(stmt.cond)

            def check(ctx, env):
                ctx.consume_fuel()
                ctx.cycles += 1
                if not cond(ctx, env):
                    raise Stuck(f"{stmt.message}: {stmt.cond}")

            return check, False

        def unknown(ctx, env):
            ctx.consume_fuel()
            ctx.cycles += 1
            raise Stuck(f"cannot execute statement {stmt!r}")

        return unknown, False


def _seq_rest(tail: Tuple[Tuple[Code, bool], ...]) -> Code:
    """The frame finishing a ``Seq`` with the statements ``tail``."""

    def seq_rest(ctx, env, signal):
        if signal is not None:
            return signal
        for code, generator in tail:
            signal = (yield from code(ctx, env)) if generator else code(ctx, env)
            if signal is not None:
                return signal
        return None

    return seq_rest


def c_player(unit: TranslationUnit, name: str) -> Callable:
    """Make a player running function ``name`` of ``unit``.

    This is ``LκM`` — the function body interpreted over whatever
    interface the execution context carries.
    """
    interp = Interp(unit)

    def player(ctx: ExecutionContext, *args):
        ret = yield from interp.run_function(ctx, name, list(args))
        return ret

    player.__name__ = f"c_{name}"
    # Lets the game engine re-enter a suspended run of this player
    # (:mod:`repro.core.playerstate`).
    player.__c_function__ = (interp, name)
    return player


def c_func_impl(unit: TranslationUnit, name: str):
    """Package a unit function as a :class:`~repro.core.module.FuncImpl`."""
    from ..core.module import FuncImpl

    return FuncImpl(
        name=name,
        player=c_player(unit, name),
        source=unit.functions[name],
        lang="c",
    )
