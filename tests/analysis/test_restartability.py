"""Which suspended primitive calls a restored game player may restart.

A restored player re-enters its pending primitive by calling the
specification again and advancing it to its query
(:meth:`repro.core.context.ExecutionContext.restart_call`).  That is
sound only when nothing runs before the query and the query cannot be
reached again.  The verdict comes from bytecode and must not depend on
the Python version: CI runs this file on 3.10, 3.11 and 3.12.
"""

from __future__ import annotations

import pytest

from repro.analysis.effects import (
    NEVER_SUSPENDS,
    NOT_RESTARTABLE,
    RESTARTABLE,
    restartability,
)
from repro.machine import lx86_interface
from repro.objects.mcs_lock import tid_prims


LX86 = lx86_interface([1, 2])


@pytest.mark.parametrize("name", ["fai", "cas", "swap", "aload", "astore", "pull"])
def test_lx86_query_primitives_are_restartable(name):
    assert restartability(LX86.lookup(name).spec) == RESTARTABLE


def test_push_never_suspends():
    assert restartability(LX86.lookup("push").spec) == NEVER_SUSPENDS


@pytest.mark.parametrize("prim", tid_prims(), ids=lambda prim: prim.name)
def test_private_primitives_never_suspend(prim):
    assert restartability(prim.spec) == NEVER_SUSPENDS


def test_work_after_the_query_is_allowed():
    def spec(ctx, cells):
        yield from ctx.query()
        total = 0
        for cell in cells:
            total += len(cell)
        try:
            ctx.emit("sum", total)
        except KeyError:
            total = None
        return total

    assert restartability(spec) == RESTARTABLE


def writes_priv_first(ctx):
    ctx.priv["seen"] = True
    yield from ctx.query()
    ctx.emit("e")


def emits_first(ctx):
    ctx.emit("e")
    yield from ctx.query()


def queries_in_a_loop(ctx):
    while True:
        yield from ctx.query()
        if ctx.log.count("e") > 1:
            return None
        ctx.emit("e")


def queries_twice(ctx):
    yield from ctx.query()
    ctx.emit("a")
    yield from ctx.query()
    ctx.emit("b")


def queries_through_a_call(ctx):
    yield from ctx.call("fai", "c")


@pytest.mark.parametrize(
    "spec",
    [writes_priv_first, emits_first, queries_in_a_loop, queries_twice,
     queries_through_a_call, len],
    ids=lambda spec: spec.__name__,
)
def test_not_restartable(spec):
    assert restartability(spec) == NOT_RESTARTABLE
