"""The closure-compiled mini-C interpreter against the reference tree walker.

``reference_interp.Interp`` is the tree walker that closure translation
replaced.  Every observable of a run must agree between the two: return
value, stuck reason, simulated cycles, remaining fuel, the global log
and the participant's private state — including runs cut short by fuel,
and runs ending in a raw Python error.  Translating a function must also
leave its impl's content fingerprint (the certificate-cache key) as it
was before the first run.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import reference_interp
from repro.clight import (
    Arr,
    Assert,
    Assign,
    Binop,
    Break,
    Call,
    CFunction,
    Const,
    Continue,
    Fld,
    Glob,
    If,
    Interp,
    Return,
    Seq,
    Shared,
    Skip,
    TranslationUnit,
    Tup,
    Unop,
    Var,
    While,
    c_func_impl,
)
from repro.clight import semantics
from repro.core import Prim, check_soundness, run_local, simple_event_prim
from repro.core.interface import SHARED
from repro.machine import lx86_interface
from repro.objects.mcs_lock import certify_mcs_lock
from repro.objects.qlock import check_qlock_correctness
from repro.objects.sched import CpuMap
from repro.objects.shared_queue import certify_shared_queue
from repro.objects.ticket_lock import certify_ticket_lock, ticket_lock_unit
from repro.parallel.canonical import canonical_fingerprint


def echo_spec(ctx, *args):
    """A shared primitive that queries, emits, and returns its arity."""
    yield from ctx.query()
    ctx.emit("echo", *args)
    return len(args)


IFACE = lx86_interface(
    [1], extra_prims=[Prim("echo", echo_spec, kind=SHARED), simple_event_prim("ev")]
)

LOCALS = ("a", "b", "x", "unset")
GLOBALS = ("g", "arr", "rec", "missing")
FIELDS = ("f", "h")
UNOPS = ("-", "!", "~", "?")
BINOPS = (
    "+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=",
    "&&", "||", "&", "|", "^", "<<", ">>", "**",
)
#: Same-unit functions (``f`` recursion included), primitives, and a
#: name neither defines.
CALLEES = ("f", "helper", "echo", "ev", "pull", "push", "nope")


def make_unit(body, helper, width_bits):
    unit = TranslationUnit("diff", width_bits=width_bits)
    unit.add(CFunction("f", ["a", "b"], body))
    unit.add(CFunction("helper", ["x"], helper))
    unit.globals.update(
        g=5, arr=lambda: [0, 1, 2, 3], rec=lambda: {"f": 1, "h": (2, 3)}
    )
    return unit


consts = st.builds(Const, st.integers(-3, 9))
blocks = st.builds(Const, st.sampled_from(("blk", "other")))
exprs = st.recursive(
    st.one_of(
        consts,
        st.builds(Var, st.sampled_from(LOCALS)),
        st.builds(Glob, st.sampled_from(GLOBALS)),
        st.builds(Shared, blocks),
    ),
    lambda sub: st.one_of(
        st.builds(Unop, st.sampled_from(UNOPS), sub),
        st.builds(Binop, st.sampled_from(BINOPS), sub, sub),
        st.builds(Tup, st.lists(sub, max_size=4)),
        st.builds(Arr, sub, sub),
        st.builds(Fld, sub, st.sampled_from(FIELDS)),
        st.builds(Shared, sub),
    ),
    max_leaves=5,
)
# Every place shape, plus arbitrary expressions (mostly not lvalues).
places = st.one_of(
    st.builds(Var, st.sampled_from(LOCALS)),
    st.builds(Glob, st.sampled_from(GLOBALS)),
    st.builds(Shared, blocks),
    st.builds(Arr, st.builds(Glob, st.just("arr")) | exprs, exprs),
    st.builds(Fld, st.builds(Glob, st.just("rec")) | exprs, st.sampled_from(FIELDS)),
    exprs,
)
stmts = st.recursive(
    st.one_of(
        st.just(Skip()),
        st.just(Break()),
        st.just(Continue()),
        st.builds(Assign, places, exprs),
        st.builds(Return, st.none() | exprs),
        st.builds(
            Call,
            st.none() | places,
            st.sampled_from(CALLEES),
            st.lists(exprs, max_size=3),
        ),
        st.builds(Assert, exprs, st.just("check")),
    ),
    lambda sub: st.one_of(
        st.builds(Seq, st.lists(sub, max_size=4)),
        st.builds(If, exprs, sub, sub),
        st.builds(While, exprs, sub),
    ),
    max_leaves=8,
)


def outcome(interp_class, unit, args, fuel):
    """Every observable of running ``f`` of ``unit`` under ``run_local``."""
    interp = interp_class(unit)
    ctxs = []

    def player(ctx, *args):
        ctxs.append(ctx)
        return (yield from interp.run_function(ctx, "f", list(args)))

    try:
        run = run_local(IFACE, 1, player, args, fuel=fuel)
        ended = {"ret": run.ret, "stuck": run.stuck, "finished": run.finished}
    except Exception as err:  # a raw Python error escapes both alike
        ended = {"raised": f"{type(err).__name__}: {err}"}
    (ctx,) = ctxs
    return dict(
        ended, fuel=ctx.fuel, cycles=ctx.cycles,
        log=ctx.buffer.snapshot().events, priv=ctx.priv,
    )


def assert_agree(unit, args, fuel):
    expected = outcome(reference_interp.Interp, unit, args, fuel)
    assert outcome(Interp, unit, args, fuel) == expected
    return expected


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    body=stmts,
    helper=stmts,
    width_bits=st.sampled_from((4, 32)),
    args=st.tuples(st.integers(0, 9), st.integers(0, 9)),
    fuel=st.integers(0, 120),
)
def test_generated_functions_agree(body, helper, width_bits, args, fuel):
    assert_agree(make_unit(body, helper, width_bits), args, fuel)


def unit_of(*stmts, width_bits=32):
    return make_unit(Seq(list(stmts)), Return(Var("x")), width_bits)


class TestAgreement:
    """Hand-picked edge cases, each checked against the reference."""

    @pytest.mark.parametrize("jump", [Break(), Continue()])
    def test_jump_outside_a_loop(self, jump):
        run = assert_agree(unit_of(Assign(Var("x"), Const(1)), jump), (1, 2), 50)
        assert run["stuck"] == f"f: {type(jump).__name__.lower()} outside a loop"

    @pytest.mark.parametrize("op, message", [("/", "division"), ("%", "modulo")])
    def test_zero_divisor(self, op, message):
        run = assert_agree(unit_of(Return(Binop(op, Var("a"), Const(0)))), (3, 0), 50)
        assert run["stuck"] == f"{message} by zero"

    @pytest.mark.parametrize("expr", [Var("unset"), Glob("missing")])
    def test_undefined_names(self, expr):
        run = assert_agree(unit_of(Return(expr)), (1, 2), 50)
        assert run["stuck"].startswith("undefined")

    def test_wrapping_at_the_width(self):
        # At 4 bits a shift distance is taken modulo 4, and results wrap.
        unit = unit_of(Return(Tup([
            Binop("<<", Const(3), Const(5)),
            Binop(">>", Const(12), Const(6)),
            Unop("-", Const(1)),
            Unop("~", Const(0)),
            Binop("+", Const(9), Const(9)),
        ])), width_bits=4)
        assert assert_agree(unit, (1, 2), 50)["ret"] == (6, 3, 15, 15, 2)

    def test_unknown_operators_stick_only_when_reached(self):
        bad = Binop("**", Unop("?", Var("a")), Const(1))
        untaken = unit_of(If(Const(0), Return(bad), Return(Const(7))))
        assert assert_agree(untaken, (1, 2), 50)["ret"] == 7
        taken = unit_of(If(Const(1), Return(bad), Return(Const(7))))
        stuck = assert_agree(taken, (1, 2), 50)["stuck"]
        assert stuck == "unknown unary operator '?'"

    @pytest.mark.parametrize("stmt, stuck", [
        # An assignment evaluates its value before its place ...
        (Assign(Arr(Glob("missing"), Var("unset")), Var("unset")),
         "undefined local 'unset'"),
        # ... and a place's base before its index.
        (Assign(Arr(Glob("missing"), Var("unset")), Const(1)),
         "undefined global 'missing'"),
        (Return(Binop("+", Var("unset"), Glob("missing"))),
         "undefined local 'unset'"),
        (Return(Tup([Glob("missing"), Var("unset")])),
         "undefined global 'missing'"),
        (Call(None, "nope", [Glob("missing"), Var("unset")]),
         "undefined global 'missing'"),
    ])
    def test_left_to_right(self, stmt, stuck):
        assert assert_agree(unit_of(stmt), (1, 2), 50)["stuck"] == stuck

    def test_non_lvalue_sticks_after_its_value(self):
        run = assert_agree(
            unit_of(Assign(Const(1), Binop("/", Const(1), Const(0)))), (1, 2), 50
        )
        assert run["stuck"] == "division by zero"

    @pytest.mark.parametrize("read", [True, False])
    def test_shared_access_without_pull(self, read):
        stmt = (
            Return(Shared(Const("blk"))) if read
            else Assign(Shared(Const("blk")), Const(1))
        )
        assert "missing pull" in assert_agree(unit_of(stmt), (1, 2), 50)["stuck"]

    def test_shared_access_across_pull_and_push(self):
        run = assert_agree(unit_of(
            Call(None, "pull", [Const("blk")]),
            Assign(Shared(Const("blk")), Var("a")),
            Call(Var("x"), "echo", [Shared(Const("blk")), Var("b")]),
            Call(None, "push", [Const("blk")]),
            Return(Tup([Var("x"), Shared(Const("blk"))])),
        ), (4, 5), 100)
        # ``push`` gives up the local copy, so the last read sticks.
        assert run["stuck"] == (
            "access to shared block 'blk' without ownership (missing pull)"
        )

    def test_recursion_with_events(self):
        unit = make_unit(
            If(
                Binop("==", Var("a"), Const(0)),
                Return(Const(0)),
                Seq([
                    Call(None, "ev", [Var("a")]),
                    Call(Var("r"), "f", [Binop("-", Var("a"), Const(1)), Var("b")]),
                    Return(Binop("+", Var("r"), Var("b"))),
                ]),
            ),
            Return(Var("x")),
            32,
        )
        run = assert_agree(unit, (4, 3), 500)
        assert run["ret"] == 12 and len(run["log"]) == 4

    def test_out_of_fuel_anywhere_in_a_loop(self):
        unit = unit_of(
            Assign(Var("x"), Const(0)),
            While(Binop("<", Var("x"), Const(5)), Seq([
                Assign(Var("x"), Binop("+", Var("x"), Const(1))),
                Call(None, "echo", [Var("x")]),
                If(Binop("==", Var("x"), Const(2)), Continue()),
                Assign(Fld(Glob("rec"), "f"), Var("x")),
            ])),
            Call(Var("x"), "helper", [Var("x")]),
            Return(Var("x")),
        )
        ends = [assert_agree(unit, (1, 2), fuel) for fuel in range(80)]
        assert ends[0]["stuck"] == "participant 1 ran out of fuel"
        assert ends[-1]["ret"] == 5


def ticket_game():
    """The Thm 2.2 game over the certified ticket lock: interpreted players."""
    client = {tid: [("acq", ("q0",)), ("rel", ("q0",))] for tid in (1, 2)}
    return check_soundness(
        certify_ticket_lock([1, 2], lock="q0").composed,
        clients=[client], max_rounds=14, require_progress=False,
    )


CERTIFICATIONS = {
    "ticket": lambda: certify_ticket_lock([1, 2], lock="q0").composed.certificate,
    "ticket_game": ticket_game,
    "mcs": lambda: certify_mcs_lock([1, 2], lock="q0").composed.certificate,
    "queue": lambda: certify_shared_queue([1, 2], queue="rdq")["composed"].certificate,
    "qlock": lambda: check_qlock_correctness(CpuMap({1: 0, 2: 0}), {0: 1}, lock=5),
}


@pytest.mark.parametrize("name", sorted(CERTIFICATIONS))
def test_certificates_match_the_reference(name, monkeypatch, obs_off):
    certify = CERTIFICATIONS[name]
    compiled = json.dumps(certify().to_json(), sort_keys=True)
    monkeypatch.setattr(semantics, "Interp", reference_interp.Interp)
    assert json.dumps(certify().to_json(), sort_keys=True) == compiled


def test_reference_interpreter_game_reexecutes(monkeypatch, obs_off):
    # The tree walker keeps no activation records, so no branch point
    # past the first round stores player state: every sibling there
    # re-executes its prefix.  (At the first round no player has run,
    # and a sibling starts every player afresh.)
    from repro import obs
    from repro.core import behaviors_of, machine
    from repro.envflags import pinned
    from repro.obs.metrics import MetricsWindow

    client = {tid: [("acq", ("q0",)), ("rel", ("q0",))] for tid in (1, 2)}

    def game():
        layer = certify_ticket_lock([1, 2], lock="q0").composed
        with obs.observing(reset=False), pinned(jobs=1):
            window = MetricsWindow()
            results = behaviors_of(
                layer.underlay, client, layer.module, max_rounds=14
            )
            delta = window.delta()
        return (
            results,
            delta["machine.schedule_rounds_replayed"],
            delta.get("machine.schedule_rounds_restored", 0),
        )

    compiled, replayed, restored = game()
    assert restored == replayed > 0
    restored_players = []

    def restore_player(ctx, calls, part):
        restored_players.append(ctx.tid)
        return real_restore_player(ctx, calls, part)

    real_restore_player = machine.restore_player
    monkeypatch.setattr(machine, "restore_player", restore_player)
    monkeypatch.setattr(semantics, "Interp", reference_interp.Interp)
    reference, replayed, restored = game()
    assert replayed > restored
    assert restored_players == []
    assert reference == compiled


def interp_of(impl):
    (interp,) = [
        cell.cell_contents for cell in impl.player.__closure__
        if isinstance(cell.cell_contents, Interp)
    ]
    return interp


def test_fingerprint_ignores_compiled_code():
    impls = {name: c_func_impl(ticket_lock_unit(), name) for name in ("acq", "rel")}
    before = {name: canonical_fingerprint(impl) for name, impl in impls.items()}

    def client(ctx):
        yield from impls["acq"].player(ctx, "q0")
        yield from impls["rel"].player(ctx, "q0")

    assert run_local(IFACE, 1, client).ok
    for name, impl in impls.items():
        assert name in interp_of(impl)._compiled
        assert canonical_fingerprint(impl) == before[name]
