"""Reference interpreter for mini-C: the original tree walker.

``repro.clight.semantics`` translates each function body into closures
once.  This module keeps the tree walker that translation replaced,
unchanged, as the oracle the differential tests compare it against:
every expression and statement is re-dispatched each time it runs.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.clight.ast import (
    Arr,
    Assert,
    Assign,
    Binop,
    Break,
    Call,
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
from repro.clight.semantics import unit_globals
from repro.core.context import ExecutionContext
from repro.core.errors import Stuck
from repro.core.machint import IntWidth
from repro.machine.sharedmem import local_copy

# Control-flow outcomes threaded through statement execution.
_NORMAL = "normal"
_BREAK = "break"
_CONTINUE = "continue"
_RETURN = "return"


class Interp:
    """One translation unit interpreted over a layer interface."""

    def __init__(self, unit: TranslationUnit):
        self.unit = unit
        self.width = IntWidth(unit.width_bits)

    # -- expressions (pure) ---------------------------------------------------

    def eval(self, ctx: ExecutionContext, env: Dict[str, Any], expr: Expr) -> Any:
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, Var):
            if expr.name not in env:
                raise Stuck(f"undefined local {expr.name!r}")
            return env[expr.name]
        if isinstance(expr, Glob):
            store = unit_globals(ctx, self.unit)
            if expr.name not in store:
                raise Stuck(f"undefined global {expr.name!r}")
            return store[expr.name]
        if isinstance(expr, Shared):
            loc = self.eval(ctx, env, expr.loc)
            copies = local_copy(ctx)
            if loc not in copies:
                raise Stuck(
                    f"access to shared block {loc!r} without ownership "
                    f"(missing pull)"
                )
            return copies[loc]
        if isinstance(expr, Tup):
            return tuple(self.eval(ctx, env, item) for item in expr.items)
        if isinstance(expr, Arr):
            base = self.eval(ctx, env, expr.base)
            index = self.eval(ctx, env, expr.index)
            try:
                return base[index]
            except (TypeError, IndexError, KeyError) as err:
                raise Stuck(f"bad array access {expr}: {err}") from None
        if isinstance(expr, Fld):
            base = self.eval(ctx, env, expr.base)
            try:
                return base[expr.fieldname]
            except (TypeError, KeyError) as err:
                raise Stuck(f"bad field access {expr}: {err}") from None
        if isinstance(expr, Unop):
            return self._unop(expr.op, self.eval(ctx, env, expr.arg))
        if isinstance(expr, Binop):
            if expr.op == "&&":
                return 1 if (self._truthy(self.eval(ctx, env, expr.left))
                             and self._truthy(self.eval(ctx, env, expr.right))) else 0
            if expr.op == "||":
                return 1 if (self._truthy(self.eval(ctx, env, expr.left))
                             or self._truthy(self.eval(ctx, env, expr.right))) else 0
            return self._binop(
                expr.op,
                self.eval(ctx, env, expr.left),
                self.eval(ctx, env, expr.right),
            )
        raise Stuck(f"cannot evaluate expression {expr!r}")

    def _truthy(self, value: Any) -> bool:
        return bool(value)

    def _unop(self, op: str, value: Any) -> Any:
        if op == "-":
            return self.width.wrap(-value)
        if op == "!":
            return 0 if value else 1
        if op == "~":
            return self.width.wrap(~value)
        raise Stuck(f"unknown unary operator {op!r}")

    def _binop(self, op: str, left: Any, right: Any) -> Any:
        wrap = self.width.wrap
        if op == "+":
            return wrap(left + right)
        if op == "-":
            return wrap(left - right)
        if op == "*":
            return wrap(left * right)
        if op == "/":
            if right == 0:
                raise Stuck("division by zero")
            return wrap(left // right)
        if op == "%":
            if right == 0:
                raise Stuck("modulo by zero")
            return wrap(left % right)
        if op == "==":
            return 1 if left == right else 0
        if op == "!=":
            return 1 if left != right else 0
        if op == "<":
            return 1 if left < right else 0
        if op == "<=":
            return 1 if left <= right else 0
        if op == ">":
            return 1 if left > right else 0
        if op == ">=":
            return 1 if left >= right else 0
        if op == "&":
            return wrap(left & right)
        if op == "|":
            return wrap(left | right)
        if op == "^":
            return wrap(left ^ right)
        if op == "<<":
            return wrap(left << (right % max(self.width.bits, 1)))
        if op == ">>":
            return wrap(left >> (right % max(self.width.bits, 1)))
        raise Stuck(f"unknown binary operator {op!r}")

    # -- places (lvalues) -------------------------------------------------------

    def store(self, ctx: ExecutionContext, env: Dict[str, Any], place: Expr, value: Any) -> None:
        container, key = self._resolve_place(ctx, env, place)
        container[key] = value

    def _resolve_place(
        self, ctx: ExecutionContext, env: Dict[str, Any], place: Expr
    ) -> Tuple[Any, Any]:
        if isinstance(place, Var):
            return env, place.name
        if isinstance(place, Glob):
            return unit_globals(ctx, self.unit), place.name
        if isinstance(place, Shared):
            loc = self.eval(ctx, env, place.loc)
            copies = local_copy(ctx)
            if loc not in copies:
                raise Stuck(
                    f"write to shared block {loc!r} without ownership "
                    f"(missing pull)"
                )
            return copies, loc
        if isinstance(place, Arr):
            base = self.eval(ctx, env, place.base)
            index = self.eval(ctx, env, place.index)
            return base, index
        if isinstance(place, Fld):
            base = self.eval(ctx, env, place.base)
            return base, place.fieldname
        raise Stuck(f"not an lvalue: {place!r}")

    # -- statements (players) -----------------------------------------------------

    def exec_stmt(self, ctx: ExecutionContext, env: Dict[str, Any], stmt: Stmt):
        """Execute one statement; a generator returning a control signal."""
        ctx.consume_fuel()
        ctx.charge_cycles(1)
        if isinstance(stmt, Skip):
            return (_NORMAL, None)
        if isinstance(stmt, Assign):
            self.store(ctx, env, stmt.place, self.eval(ctx, env, stmt.value))
            return (_NORMAL, None)
        if isinstance(stmt, Seq):
            for sub in stmt.stmts:
                signal = yield from self.exec_stmt(ctx, env, sub)
                if signal[0] != _NORMAL:
                    return signal
            return (_NORMAL, None)
        if isinstance(stmt, If):
            branch = stmt.then if self._truthy(self.eval(ctx, env, stmt.cond)) else stmt.els
            signal = yield from self.exec_stmt(ctx, env, branch)
            return signal
        if isinstance(stmt, While):
            while self._truthy(self.eval(ctx, env, stmt.cond)):
                ctx.consume_fuel()
                signal = yield from self.exec_stmt(ctx, env, stmt.body)
                if signal[0] == _BREAK:
                    break
                if signal[0] == _RETURN:
                    return signal
            return (_NORMAL, None)
        if isinstance(stmt, Break):
            return (_BREAK, None)
        if isinstance(stmt, Continue):
            return (_CONTINUE, None)
        if isinstance(stmt, Return):
            value = (
                self.eval(ctx, env, stmt.value) if stmt.value is not None else None
            )
            return (_RETURN, value)
        if isinstance(stmt, Call):
            args = [self.eval(ctx, env, a) for a in stmt.args]
            if stmt.fn in self.unit.functions:
                ret = yield from self.run_function(ctx, stmt.fn, args)
            else:
                # An underlay primitive: the callee's specification decides
                # whether this is a query point.
                ret = yield from ctx.call(stmt.fn, *args)
            if stmt.dst is not None:
                self.store(ctx, env, stmt.dst, ret)
            return (_NORMAL, None)
        if isinstance(stmt, Assert):
            if not self._truthy(self.eval(ctx, env, stmt.cond)):
                raise Stuck(f"{stmt.message}: {stmt.cond}")
            return (_NORMAL, None)
        raise Stuck(f"cannot execute statement {stmt!r}")

    def run_function(self, ctx: ExecutionContext, name: str, args):
        fn = self.unit.functions.get(name)
        if fn is None:
            raise Stuck(f"undefined function {name!r} in unit {self.unit.name}")
        if len(args) != len(fn.params):
            raise Stuck(
                f"{name} expects {len(fn.params)} args, got {len(args)}"
            )
        env = dict(zip(fn.params, args))
        signal = yield from self.exec_stmt(ctx, env, fn.body)
        if signal[0] == _RETURN:
            return signal[1]
        if signal[0] == _NORMAL:
            return None
        raise Stuck(f"{name}: {signal[0]} outside a loop")
