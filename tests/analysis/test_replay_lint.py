"""Replay-purity lint (R401–R404): golden positives and negatives."""

from __future__ import annotations

import sys
import textwrap

from repro.analysis.cli import main
from repro.analysis.replay_lint import lint_replay_fn
from repro.core.replay import ReplayFn, all_replay_fns, replay_shared


def _rules(findings):
    return {f.rule_id for f in findings if not f.suppressed}


class TestR401MutableClosure:
    def test_positive(self):
        leaked = {"count": 0}

        def init():
            return leaked["count"]

        def step(state, event):
            return state + 1

        rf = ReplayFn("Rleak", init, step)
        assert "REPRO-R401" in _rules(lint_replay_fn(rf))

    def test_negative_immutable_closure(self):
        base = 7
        names = ("a", "b")

        def init():
            return base

        def step(state, event):
            return state + len(names)

        rf = ReplayFn("Rconst", init, step)
        assert "REPRO-R401" not in _rules(lint_replay_fn(rf))


class TestR402Nondeterminism:
    def test_positive(self):
        import random

        def init():
            return 0

        def step(state, event):
            return state + random.random()

        rf = ReplayFn("Rrandom", init, step)
        assert "REPRO-R402" in _rules(lint_replay_fn(rf))

    def test_negative(self):
        assert "REPRO-R402" not in _rules(lint_replay_fn(replay_shared))


class TestR403MutableDefault:
    def test_positive(self):
        def init():
            return ()

        def step(state, event, scratch=[]):
            scratch.append(event)
            return state

        rf = ReplayFn("Rscratch", init, step)
        assert "REPRO-R403" in _rules(lint_replay_fn(rf))

    def test_negative(self):
        def init():
            return ()

        def step(state, event, bound=4):
            return state[-bound:] + (event,)

        rf = ReplayFn("Rbound", init, step)
        assert "REPRO-R403" not in _rules(lint_replay_fn(rf))


class TestR404StepMutatesState:
    @staticmethod
    def _init():
        return []

    def test_positive_mutating_method(self):
        def step(state, event):
            state.append(event)
            return state

        rf = ReplayFn("Rappend", self._init, step)
        assert "REPRO-R404" in _rules(lint_replay_fn(rf))

    def test_positive_each_mutation_form(self):
        def step(state, event, loc):
            state[loc] = event
            state[loc] += 1
            del state[0]
            state.owner = event.tid
            del state.owner
            state.queue.pop(0)
            return state

        findings = [
            f for f in lint_replay_fn(ReplayFn("Rforms", self._init, step))
            if f.rule_id == "REPRO-R404"
        ]
        assert len(findings) == 6
        assert all(f.severity == "error" and not f.suppressed for f in findings)
        first = step.__code__.co_firstlineno
        assert [f.line - first for f in findings] == [1, 2, 3, 4, 5, 6]

    def test_positive_in_comprehension(self):
        def step(state, event):
            return [state.pop() for _ in range(event.tid)]

        rf = ReplayFn("Rdrain", self._init, step)
        assert "REPRO-R404" in _rules(lint_replay_fn(rf))

    def test_negative_returns_new_state(self):
        def step(state, event, loc):
            copy = list(state)
            copy.append(event)
            rebuilt = dict(owners={}, **{"n": len(state)})
            rebuilt.update(n=0)
            head, *rest = state
            return tuple(copy) + state[1:] + (head, len(rest))

        rf = ReplayFn("Rcopy", self._init, step)
        assert "REPRO-R404" not in _rules(lint_replay_fn(rf))

    def test_init_is_not_checked(self):
        def init():
            state = []
            state.append(0)
            return tuple(state)

        rf = ReplayFn("Rbuild", init, lambda state, event: state)
        assert "REPRO-R404" not in _rules(lint_replay_fn(rf))

    def test_suppressed_by_allow_comment(self):
        def step(state, event):  # repro: allow(REPRO-R404)
            state.append(event)
            return state

        findings = lint_replay_fn(ReplayFn("Rallowed", self._init, step))
        assert [f.suppressed for f in findings if f.rule_id == "REPRO-R404"] == [True]


class TestShippedReplayFns:
    def test_all_registered_replay_fns_clean(self):
        # Import the shipped objects so their replay functions register.
        import repro.machine.atomics  # noqa: F401
        import repro.objects.mcs_lock  # noqa: F401
        import repro.objects.sched  # noqa: F401
        import repro.objects.shared_queue  # noqa: F401
        import repro.objects.ticket_lock  # noqa: F401

        shipped = [
            rf for rf in all_replay_fns()
            if getattr(rf._init, "__module__", "").startswith("repro.")
        ]
        assert shipped
        dirty = {
            rf.name: _rules(lint_replay_fn(rf))
            for rf in shipped
            if _rules(lint_replay_fn(rf))
        }
        assert not dirty, f"shipped replay functions have findings: {dirty}"


class TestInvariantFolds:
    """A log invariant is a replay fold, so the lint sweep checks its step
    like any other replay function's."""

    def test_mutating_invariant_step_is_flagged(self, tmp_path, monkeypatch, capsys):
        src = textwrap.dedent(
            """
            from repro.core import LogInvariant, ReplayFn

            def _seen_init():
                return []

            def _seen_step(seen, event):
                seen.append(event.name)
                return seen

            seen_names = ReplayFn("seen_names", _seen_init, _seen_step)

            def no_repeats():
                return LogInvariant(
                    "no_repeats", seen_names,
                    verdict=lambda seen: len(seen) == len(set(seen)),
                )
            """
        )
        (tmp_path / "mutating_inv_mod.py").write_text(src)
        monkeypatch.syspath_prepend(str(tmp_path))
        try:
            code = main(["mutating_inv_mod"])
        finally:
            sys.modules.pop("mutating_inv_mod", None)
        out = capsys.readouterr().out
        assert code == 1
        assert "REPRO-R404" in out
        assert "seen_names.step" in out
