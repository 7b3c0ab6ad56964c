"""Branch-point resumption: the same enumeration, checked replays.

Four contracts:

* *Differential oracle.*  The resuming DFS enumerates exactly what the
  script-following DFS it replaced (``reference_dpor.py``) enumerated:
  every ``GameResult`` in order, the run and pruned counts and the
  reduction tallies, on the 2-client ticket and MCS Thm 2.2 games and
  on a 3-participant toy game, with reduction on and off, serially and
  with two forced workers.  The reference decides silence by a hash
  chain of the non-sched events, the engine by counting them.  With
  reduction off it also returns the seed prefix-replay DFS's
  ``GameResult`` list, in order.
  (Run counts are not compared with the seed DFS: it counted every
  prefix re-execution as a run.)
* *Divergence fails loudly.*  A sibling run replays recorded rounds
  without re-deciding them, which presumes deterministic players.  A
  player that behaves differently on a later run raises
  ``ReplayDivergence`` naming the round and the first differing log
  index; it never yields a ``Stuck`` verdict or a silent exploration.
* *Restored runs equal re-executed ones.*  When every player is a
  client of linked ClightX functions, a sibling installs the player
  state recorded at its branch point instead of replaying.  Each such
  run must end exactly as the same entry with the state removed, which
  re-executes the prefix: same ``GameResult``, or same cut.  Records
  are shared by reference between branch points and siblings.
* *The fallback re-executes.*  Players the engine cannot capture —
  Python-spec functions, a fine-grained game — restore nothing and
  replay as before, and a branch point at which a player's state holds
  a value that cannot be frozen stores nothing.
"""

from __future__ import annotations

import pickle

import pytest

import reference_dpor
from repro import obs
from repro.clight import (
    Assign,
    Binop,
    Break,
    Call,
    CFunction,
    Const,
    Continue,
    Glob,
    If,
    Return,
    Seq,
    Shared,
    Skip,
    TranslationUnit,
    Var,
    While,
    c_func_impl,
)
from repro.core import machine, playerstate
from repro.core import (
    LayerInterface,
    ReplayDivergence,
    Stuck,
    call_player,
    enumerate_game_logs,
    run_game,
    seq_player,
    shared_prim,
)
from repro.core.interface import private_prim
from repro.core.machine import ScriptScheduler
from repro.core.module import Module, link
from repro.machine import lx86_interface
from repro.obs.coverage import CoverageBuilder
from repro.obs.metrics import MetricsWindow
from repro.envflags import engine_config, pinned
from repro.reduce import ReductionStats, reduction_collector
from repro.reduce.dpor import DeferRun, PruneRun, ReducingScheduler

#: Reduction off and on, with the parameter ids the tests print.
REDUCE = pytest.mark.parametrize(
    "reduce", [False, True], ids=["none", "dpor"]
)

CLIENT = {tid: [("acq", ("q0",)), ("rel", ("q0",))] for tid in (1, 2)}


def client_players():
    return {tid: (seq_player(list(calls)), ()) for tid, calls in CLIENT.items()}


# --- the games ---------------------------------------------------------------


def bump_spec(ctx):
    yield from ctx.query()
    ctx.emit("bump", ret=ctx.log.count("bump") + 1)
    return None


def skip_spec(ctx):
    # A silent step: no event, so it commutes with every other step.
    return None
    yield


def local_step(ctx):
    # Purely private: a single step that appends no event.
    return len(ctx.priv)


def toy_game():
    interface = LayerInterface(
        "Toy3",
        [1, 2, 3],
        {
            "bump": shared_prim("bump", bump_spec),
            "skip": shared_prim("skip", skip_spec),
            "local": private_prim("local", local_step),
        },
    )
    players = {
        1: (seq_player([("skip", ()), ("bump", ())]), ()),
        2: (seq_player([("bump", ()), ("skip", ()), ("bump", ())]), ()),
        3: (call_player("local"), ()),
    }
    return [(interface, players, 12)]


def certified_games(certify):
    layer = certify().composed
    return [
        (link(layer.underlay, layer.module), client_players(), 14),
        (layer.overlay, client_players(), 14),
    ]


def ticket_games():
    from repro.objects.ticket_lock import certify_ticket_lock

    return certified_games(lambda: certify_ticket_lock([1, 2], lock="q0"))


def mcs_games():
    from repro.objects.mcs_lock import certify_mcs_lock

    return certified_games(lambda: certify_mcs_lock([1, 2, 3], lock="q0"))


GAMES = {"toy": toy_game, "ticket": ticket_games, "mcs": mcs_games}


@pytest.fixture(scope="module")
def games():
    built = {}

    def get(name):
        if name not in built:
            built[name] = GAMES[name]()
        return built[name]

    return get


def tallied(reduce, run):
    """``run()`` with reduction on or off: (results, runs, pruned, tallies)."""
    with pinned(reduce=reduce), reduction_collector() as stats:
        results, runs, pruned = run()
    return results, runs, pruned, stats.as_dict()


def reference(interface, players, max_rounds, reduce):
    return tallied(
        reduce,
        lambda: reference_dpor.reference_enumerate(
            interface, players, reduce, max_rounds
        ),
    )


def resumed(interface, players, max_rounds, reduce, jobs):
    def run():
        coverage = CoverageBuilder("machine.schedules")
        with obs.observing(reset=False), pinned(jobs=jobs):
            window = MetricsWindow()
            results = enumerate_game_logs(
                interface, players, max_rounds=max_rounds, coverage=coverage,
            )
            runs = window.delta()["machine.schedules_explored"]
        return results, runs, coverage.pruned

    return tallied(reduce, run)


class TestDifferentialOracle:
    @REDUCE
    @pytest.mark.parametrize("name", sorted(GAMES))
    def test_same_enumeration(self, name, reduce, games):
        for interface, players, max_rounds in games(name):
            expected = reference(interface, players, max_rounds, reduce)
            assert expected[1] > 1
            if not reduce:
                seed = reference_dpor.seed_enumerate(
                    interface, players, max_rounds
                )
                assert expected[0] == seed
            for jobs in (1, 2):
                got = resumed(interface, players, max_rounds, reduce, jobs)
                assert got[0] == expected[0], f"jobs={jobs}"
                assert got[1:] == expected[1:], f"jobs={jobs}"


# --- divergence ----------------------------------------------------------------


def emit_interface():
    return LayerInterface("Emit", [1, 2], {})


def emitter(*names):
    """A player that emits ``names`` in order, one per scheduling step."""

    def player(ctx):
        for i, name in enumerate(names):
            if i:
                yield from ctx.query()
            ctx.emit(name)
        return len(names)

    return player


def flaky(first, later):
    """A player that runs ``first`` on its first run, ``later`` after."""
    runs = [0]

    def player(ctx):
        runs[0] += 1
        return (yield from (first if runs[0] == 1 else later)(ctx))

    return player


class TestDivergence:
    def enumerate(self, player1, reduce=True):
        players = {1: (player1, ()), 2: (emitter("x", "y"), ())}
        with pinned(reduce=reduce):
            return enumerate_game_logs(emit_interface(), players, max_rounds=12)

    def test_different_event_on_a_later_run(self):
        # The first sibling resumes at round 1 after replaying round 0,
        # where player 1 now emits ``b`` (log index 1) instead of ``a``.
        # The check does not depend on reduction: the unpruned
        # enumeration must fail loudly too.
        for reduce in (True, False):
            with pytest.raises(ReplayDivergence) as info:
                self.enumerate(
                    flaky(emitter("a", "c"), emitter("b", "c")), reduce
                )
            assert (info.value.round, info.value.index) == (1, 1)
            assert "round 1" in str(info.value)
            assert "first differing log index 1" in str(info.value)

    def test_deterministic_players_do_not_diverge(self):
        results = self.enumerate(emitter("a", "c"))
        assert all(result.ok for result in results)

    def record(self, player1):
        """The branch points of a root run, deepest last."""
        players = {1: (player1, ()), 2: (emitter("x"), ())}
        scheduler = ReducingScheduler(None, True, ReductionStats())
        run_game(emit_interface(), players, scheduler)
        scheduler.finalize()
        return players, [point for point, _siblings in scheduler.branches]

    def resume(self, players, point, sibling=2):
        scheduler = ReducingScheduler((point, sibling), True, ReductionStats())
        return run_game(emit_interface(), players, scheduler)

    def test_replay_schedules_a_finished_participant(self):
        player1 = flaky(emitter("a", "b", "c"), emitter("z"))
        players, points = self.record(player1)
        deepest = points[-1]
        assert deepest.history == (1, 1)
        # Player 1 now finishes in round 0, emitting ``z`` at index 1,
        # so the recorded round 1 cannot schedule it.
        with pytest.raises(ReplayDivergence) as info:
            self.resume(players, deepest)
        assert (info.value.round, info.value.index) == (1, 1)
        assert "participant 1 is not ready" in str(info.value)

    def test_ready_set_checked_when_logs_agree(self):
        player1 = flaky(emitter("a", "b"), emitter("a"))
        players, points = self.record(player1)
        # Same log at the branch round, but player 1 has finished.
        with pytest.raises(ReplayDivergence) as info:
            self.resume(players, points[-1])
        assert (info.value.round, info.value.index) == (1, None)
        assert "the logs agree so far" in str(info.value)
        assert "ready set [2]" in str(info.value)

    def test_stuck_replay_is_not_a_stuck_verdict(self):
        def stuck(ctx):
            raise Stuck("only on replay")
            yield

        player1 = flaky(emitter("a", "b"), stuck)
        players, points = self.record(player1)
        with pytest.raises(ReplayDivergence) as info:
            self.resume(players, points[-1])
        assert info.value.round == 0
        assert "only on replay" in str(info.value)

    def test_error_is_not_a_verdict_and_crosses_processes(self):
        assert not issubclass(ReplayDivergence, Stuck)
        error = ReplayDivergence(3, 7, "the log differs")
        copy = pickle.loads(pickle.dumps(error))
        assert (copy.round, copy.index, str(copy)) == (3, 7, str(error))


# --- restored players ----------------------------------------------------------


def toy_c_unit():
    """A ClightX unit with what the shipped locks never exercise.

    ``worker`` calls the same-unit ``bump``, which suspends at its
    ``fai`` and then calls a primitive under either ``If`` branch; the
    loop around the call breaks, continues and returns on the values it
    sees, and adds each to a unit global (a dict in the private state).
    Depending on the schedule a worker reads the shared counter without
    pulling it (stuck), or spins a silent loop as long as the counter is
    high and runs out of fuel.
    """
    unit = TranslationUnit("toy_c")
    unit.globals["seen"] = 0
    unit.add(CFunction("bump", ["c"], Seq([
        Call(Var("v"), "fai", [Var("c")]),
        If(Binop("<", Var("v"), Const(2)),
           Call(None, "aload", [Var("c")]),
           Call(None, "astore", [Var("c"), Binop("+", Var("v"), Const(2))])),
        Return(Var("v")),
    ])))
    unit.add(CFunction("worker", ["c"], Seq([
        Assign(Var("i"), Const(0)),
        Assign(Var("r"), Const(-1)),
        While(Binop("<", Var("i"), Const(3)), Seq([
            Assign(Var("i"), Binop("+", Var("i"), Const(1))),
            Call(Var("r"), "bump", [Var("c")]),
            Assign(Glob("seen"), Binop("+", Glob("seen"), Var("r"))),
            If(Binop("==", Var("r"), Const(1)), Continue(), Skip()),
            If(Binop("==", Var("r"), Const(2)), Break(), Skip()),
            If(Binop("==", Var("r"), Const(5)),
               Return(Binop("+", Var("i"), Const(50))), Skip()),
        ])),
        If(Binop("==", Var("r"), Const(4)),
           Assign(Var("x"), Shared(Var("c"))), Skip()),
        Call(Var("n"), "aload", [Var("c")]),
        Assign(Var("j"), Const(0)),
        While(Binop("<", Var("j"), Binop("*", Var("n"), Const(6))),
              Assign(Var("j"), Binop("+", Var("j"), Const(1)))),
        Return(Binop("+", Binop("*", Glob("seen"), Const(100)),
                     Binop("+", Binop("*", Var("i"), Const(10)), Var("r")))),
    ])))
    return unit


def toy_c_game(tids=(1, 2), max_rounds=16):
    module = Module({"worker": c_func_impl(toy_c_unit(), "worker")}, name="M_toy")
    players = {tid: (seq_player([("worker", ("k",))]), ()) for tid in tids}
    return link(lx86_interface(list(tids)), module), players, max_rounds, 120


def linked_game(games):
    """The linked ClightX game of ``games()``, with the default fuel."""
    interface, players, max_rounds = games()[0]
    return interface, players, max_rounds, 10_000


#: Games whose every player is a client of linked ClightX functions:
#: ``(interface, players, max_rounds, fuel)``.
C_GAMES = {
    "ticket": lambda: linked_game(ticket_games),
    "mcs": lambda: linked_game(mcs_games),
    "toy_c": toy_c_game,
    # Three clients: a branch point has up to two siblings, each installing
    # the same frozen records.
    "toy_c3": lambda: toy_c_game((1, 2, 3), 7),
}


@pytest.fixture(scope="module")
def c_games():
    built = {}

    def get(name):
        if name not in built:
            built[name] = C_GAMES[name]()
        return built[name]

    return get


def outcome(run, scheduler):
    """How ``run(scheduler)`` ended, comparable across two schedulers."""
    try:
        ended = ("result", run(scheduler))
    except PruneRun:
        ended = ("pruned", None)
    except DeferRun:
        point, pick = scheduler.last
        ended = ("deferred", (point._replace(state=None), pick))
    scheduler.finalize()
    branches = [
        (point._replace(state=None), siblings)
        for point, siblings in scheduler.branches
    ]
    return ended, branches


class RestoreOracle:
    """Runs each restored sibling a second time, re-executing its prefix.

    The second run is the same stack entry with the branch point's
    player state removed, so it cuts where the restored run cuts and
    takes the same branches.
    """

    def __init__(self, reduce):
        self.reduce = reduce
        self.checked = 0
        self.stuck = set()
        self.real_run_game = machine.run_game
        #: ``id(point) -> [point, restored runs]`` (the point kept alive
        #: so that its id is not reused).
        self.restores = {}
        #: ``id(record) -> [record, ids of the points holding it]``.
        self.holders = {}

    def run_game(self, interface, players, scheduler, **kwargs):
        point = scheduler.restore
        if point is None:
            return self.real_run_game(interface, players, scheduler, **kwargs)
        self.restores.setdefault(id(point), [point, 0])[1] += 1
        for part in point.state.players.values():
            self.holders.setdefault(id(part), [part, set()])[1].add(id(point))
        twin = ReducingScheduler(
            (point._replace(state=None), scheduler.last[1]), self.reduce,
            ReductionStats(), frontier_depth=scheduler.frontier_depth,
        )
        assert twin.restore is None

        def run(sched):
            return self.real_run_game(interface, players, sched, **kwargs)

        expected = outcome(run, twin)
        got = outcome(run, scheduler)
        assert got == expected
        self.checked += 1
        kind, result = got[0]
        if kind == "result":
            if result.stuck is not None:
                self.stuck.add(result.stuck.split()[-1])
            return result
        raise PruneRun() if kind == "pruned" else DeferRun()


class TestRestoredRuns:
    @REDUCE
    @pytest.mark.parametrize("name", sorted(C_GAMES))
    def test_restored_equals_reexecuted(self, name, reduce, c_games, monkeypatch):
        interface, players, max_rounds, fuel = c_games(name)
        for jobs in (1, 2):
            oracle = RestoreOracle(reduce)
            monkeypatch.setattr(machine, "run_game", oracle.run_game)
            with pinned(jobs=jobs, reduce=reduce), obs.observing(reset=False):
                window = MetricsWindow()
                enumerate_game_logs(
                    interface, players, max_rounds=max_rounds, fuel=fuel,
                )
                delta = window.delta()
            monkeypatch.setattr(machine, "run_game", oracle.real_run_game)
            # Every resumed run restored, and its twin replayed the rounds
            # the restored run skipped.
            restored = delta["machine.schedule_rounds_restored"]
            assert delta["machine.schedule_rounds_replayed"] == 2 * restored > 0
            if jobs == 1:
                assert oracle.checked > 0
                # A participant that did not run between two branch
                # points keeps its record: both points hold the same one.
                assert any(
                    len(points) > 1 for _part, points in oracle.holders.values()
                )
                if name == "toy_c":
                    # Restored runs reach a read without pull and fuel
                    # exhaustion after their branch round.
                    assert {"pull)", "fuel"} <= oracle.stuck
                if name == "toy_c3":
                    # One frozen record installed in two or more siblings.
                    assert max(n for _point, n in oracle.restores.values()) > 1


def enumerated(interface, players, **kwargs):
    """``(results, replayed rounds, restored rounds)`` of one enumeration."""
    with obs.observing(reset=False):
        window = MetricsWindow()
        results = enumerate_game_logs(interface, players, **kwargs)
        delta = window.delta()
    return (
        results,
        delta.get("machine.schedule_rounds_replayed", 0),
        delta.get("machine.schedule_rounds_restored", 0),
    )


def peek_spec(ctx, items):
    # Restartable: nothing runs before the query.
    yield from ctx.query()
    ctx.emit("peek", ret=len(items))
    return len(items)


def alias_priv(ctx):
    ctx.priv["left"] = ctx.priv["right"] = {"n": 0}


def bump_priv(ctx, key, by):
    ctx.priv[key]["n"] += by


#: Primitives over lists and private dicts, for :func:`mutable_state_game`.
MUTABLE_PRIMS = [
    private_prim("fresh", lambda ctx: []),
    private_prim("note", lambda ctx, items, value: items.append(value)),
    private_prim("total", lambda ctx, items: sum(items) * 10 + len(items)),
    private_prim("alias", alias_priv),
    private_prim("bump", bump_priv),
    private_prim("read", lambda ctx, key: ctx.priv[key]["n"]),
    shared_prim("peek", peek_spec),
]


def mutable_state_game(holder):
    """Two clients whose state holds a value that cannot be frozen.

    ``holder`` says where, at some branch round, and nowhere else:

    * ``local`` or ``global``: a list in a local or a unit global, which
      a private primitive grows after every ``fai``, so a sibling that
      shared its branch point's list would see the other runs' items;
    * ``argument``: a list literal passed to the suspended call;
    * ``returned``: a list the client's first call returned;
    * ``aliased``: one dict under two keys of the private state, written
      through one and read through the other.
    """
    unit = TranslationUnit("mutable")
    v = Call(Var("v"), "fai", [Var("c")])
    w = Call(Var("w"), "fai", [Var("c")])
    calls = [("worker", ("k",))]
    if holder in ("local", "global"):
        if holder == "global":
            unit.globals["items"] = lambda: []
            items = Glob("items")
            body = []
        else:
            items = Var("items")
            body = [Call(items, "fresh", [])]
        body += [
            v, Call(None, "note", [items, Var("v")]),
            w, Call(None, "note", [items, Var("w")]),
            Call(Var("n"), "total", [items]),
            Return(Var("n")),
        ]
    elif holder == "argument":
        body = [
            v, Call(Var("w"), "peek", [Const([7, 8])]),
            Return(Binop("+", Binop("*", Var("v"), Const(10)), Var("w"))),
        ]
    elif holder == "returned":
        # The list is made after the last query of the first call.
        unit.add(CFunction("make", ["c"], Seq([
            v, Call(Var("items"), "fresh", []),
            Call(None, "note", [Var("items"), Var("v")]),
            Return(Var("items")),
        ])))
        body = [v, Return(Var("v"))]
        calls = [("make", ("k",)), ("worker", ("k",))]
    else:
        body = [
            Call(None, "alias", []),
            v, Call(None, "bump", [Const("left"), Var("v")]),
            w, Call(Var("n"), "read", [Const("right")]),
            Return(Binop("+", Binop("*", Var("n"), Const(10)), Var("w"))),
        ]
    unit.add(CFunction("worker", ["c"], Seq(body)))
    module = Module(
        {name: c_func_impl(unit, name) for name in unit.functions},
        name="M_mutable",
    )
    interface = link(lx86_interface([1, 2], extra_prims=MUTABLE_PRIMS), module)
    players = {tid: (seq_player(list(calls)), ()) for tid in (1, 2)}
    return interface, players


class TestFallback:
    """See also ``tests/clight/test_compiled.py`` for an interpreter that
    keeps no activation records."""

    @pytest.mark.parametrize("reduce", [False, True], ids=["none", "all"])
    @pytest.mark.parametrize(
        "holder", ["local", "global", "argument", "returned", "aliased"]
    )
    def test_unfreezable_state_reexecutes(self, holder, reduce, monkeypatch):
        # A branch point at which a participant holds such a value stores
        # no state, so its siblings re-execute the recorded rounds.  Runs
        # restored from the points before it are checked as usual.
        interface, players = mutable_state_game(holder)
        oracle = RestoreOracle(reduce)
        captured = []

        def capture_game(*args):
            state = playerstate.capture_game(*args)
            captured.append(state is not None)
            return state

        monkeypatch.setattr(machine, "run_game", oracle.run_game)
        monkeypatch.setattr(machine, "capture_game", capture_game)
        with pinned(jobs=1, reduce=reduce), obs.observing(reset=False):
            window = MetricsWindow()
            results = enumerate_game_logs(interface, players, max_rounds=12)
            delta = window.delta()
        monkeypatch.setattr(machine, "run_game", oracle.real_run_game)
        assert not all(captured)
        restored = delta.get("machine.schedule_rounds_restored", 0)
        assert delta["machine.schedule_rounds_replayed"] > 2 * restored
        assert all(result.ok for result in results)
        assert results == reference_dpor.reference_enumerate(
            interface, players, reduce, 12
        )[0]

    def test_python_spec_functions_reexecute(self):
        from repro.objects.ticket_lock import certify_ticket_lock

        interface, players, max_rounds = certified_games(
            lambda: certify_ticket_lock([1, 2], lock="q0", use_c_source=False)
        )[0]
        results, replayed, restored = enumerated(
            interface, players, max_rounds=max_rounds
        )
        assert replayed > 0 and restored == 0
        assert results == reference_dpor.reference_enumerate(
            interface, players, engine_config().reduce, max_rounds
        )[0]

    def test_uncopyable_private_state_reexecutes(self):
        # A unit global holding a generator cannot be copied, so no
        # branch point past the first round stores player state.
        unit = TranslationUnit("uncopyable")
        unit.globals["token"] = lambda: (x for x in ())
        unit.add(CFunction("worker", ["c"], Seq([
            Assign(Var("t"), Glob("token")),
            Call(None, "fai", [Var("c")]),
            Call(Var("r"), "fai", [Var("c")]),
            Return(Var("r")),
        ])))
        module = Module({"worker": c_func_impl(unit, "worker")}, name="M_gen")
        interface = link(lx86_interface([1, 2]), module)
        players = {tid: (seq_player([("worker", ("k",))]), ()) for tid in (1, 2)}
        results, replayed, restored = enumerated(
            interface, players, max_rounds=12
        )
        assert replayed > restored
        assert results == reference_dpor.reference_enumerate(
            interface, players, engine_config().reduce, 12
        )[0]

    def test_fine_grained_game_reexecutes(self, c_games):
        interface, players, _max_rounds, _fuel = c_games("ticket")
        # Unreduced, this many rounds of the fine-grained game exceed the
        # run budget.
        with pinned(reduce=True):
            results, replayed, restored = enumerated(
                interface, players, max_rounds=20, fine_grained=True
            )
        assert replayed > 0 and restored == 0
        assert any(result.ok for result in results)
        for result in results:
            rerun = run_game(
                interface, players, ScriptScheduler(result.schedule),
                max_rounds=20, fine_grained=True,
            )
            assert rerun == result
