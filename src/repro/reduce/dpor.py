"""DPOR path extension, branch-point resumption and sleep sets.

The exhaustive game enumerator (:func:`repro.core.machine.enumerate_game_logs`)
explores scheduling decisions with the scheduler of this module.  It
*extends* the path at each decision point (recording the sibling
branches for later) and resumes each sibling at the recorded branch
point.  With reduction on it also prunes sibling branches that are
equivalent to explored ones and keeps sleep sets that suppress
schedules equivalent to already-explored ones; with reduction off it
branches on every ready participant.

Branch-point resumption
    At every multi-candidate round the scheduler records a
    :class:`BranchPoint`: the tid of every earlier round, the log and
    ready set at this round (held by reference), its own state after
    this round's sleep update, and the players' state as the game
    captured it (``capture``; see :mod:`repro.core.playerstate`).  A
    sibling run is the stack entry ``(branch point, sibling tid)``.
    When the point carries player state, the sibling's game installs it
    and starts at the branch round: no player code re-runs.  Otherwise
    (players the game cannot capture, such as hand-written generators)
    the game takes the recorded tids for the earlier rounds without
    consulting the scheduler, and the players re-execute them.  Either
    way it then asks the scheduler, which checks that the log and ready
    set equal the recorded ones, installs the recorded state and picks
    the sibling.  A mismatch — or a recorded tid that is no longer
    ready, or a replay that ends or gets stuck before the branch round
    — raises :class:`~repro.core.errors.ReplayDivergence`: a replay
    presumes players are deterministic functions of the log, and that
    premise is checked on the log and ready set, not on private state.

Independence relation
    A scheduling step is *silent* when it appends no non-sched event;
    the scheduler counts the non-sched events each step appended, so
    silence is decided exactly, with no fingerprint standing in for
    the log.  Under the lint discipline (I201: every shared observation
    emits an event; I202: private primitives touch only ``ctx.priv``) a
    silent step neither reads nor writes shared state, so it commutes
    with every adjacent step modulo hardware-scheduling events.
    Silence is the only independence oracle the scheduler can observe
    (a step's footprint is known only after it executes), which shapes
    both pruning rules below.

    *First-branch dominance*: when the chosen step at a decision turns
    out silent, its siblings are pruned — every schedule in a sibling
    subtree maps, by commuting the silent step to the front, onto an
    equivalent schedule in the chosen subtree.  Two guards keep the
    mapping total: a step that finishes its player is never treated as
    silent (the mapped schedule could report an extra return value), and
    the final segment of a run is resolved conservatively (kept).

    *Sleep sets*: when a sibling branch ``t`` is explored after its
    earlier siblings, those earlier participants go to sleep in ``t``'s
    subtree for as long as the executed steps stay silent (each silent
    step commutes with the sleeping participant's pending step, so
    waking it would replay, one adjacent transposition at a time, a
    schedule inside an earlier sibling's subtree).  A non-silent step
    may conflict with the pending step, so it wakes everyone.  Sleeping
    participants are excluded from branching; when every ready
    participant is asleep the whole continuation is covered and the run
    is cut.  Commuting adjacent steps preserves schedule length, so
    sleep pruning is exact even at the ``max_rounds`` boundary.

    Tallies (:mod:`repro.reduce.stats`): ``dpor`` counts the pruned
    siblings and the all-asleep cuts; ``sleep`` counts, at every pick
    that does not cut, the ready participants asleep there.
"""

from __future__ import annotations

from typing import (
    Any, Callable, FrozenSet, List, NamedTuple, NoReturn, Optional, Tuple,
)

from ..core.errors import ReplayDivergence
from ..obs.metrics import inc
from ..obs.trace import obs_enabled
from .stats import ReductionStats


class PruneRun(Exception):
    """Cut the current game run: its continuation was already explored."""


class DeferRun(Exception):
    """Cut the current subtree at the frontier for a worker process."""


class BranchPoint(NamedTuple):
    """A multi-candidate decision round, recorded for its sibling runs.

    ``history`` is the tid of every earlier round; ``events`` and
    ``ready`` are the log and the ready set at this round, held by
    reference.  Then comes the scheduler's state after this round's
    sleep update: the sleep set and the decision depth (picks made at
    earlier branch points).  ``state`` is the players' state at this
    round, as the game's ``capture`` returned it, or None when the game
    captures none and siblings re-execute the recorded rounds.
    """

    history: Tuple[int, ...]
    events: Tuple[Any, ...]
    ready: FrozenSet[int]
    sleep: FrozenSet[int]
    depth: int
    state: Any = None


#: A DFS stack entry: resume at the branch point and pick the sibling
#: there.  ``None`` is the root run, which starts from the first round.
Resume = Optional[Tuple[BranchPoint, int]]


class ReducingScheduler:
    """Resuming scheduler with path extension, dominance and sleep sets.

    A run resumed at ``(point, sibling)`` exposes ``history``: the tids
    of the rounds before the branch round, which
    :func:`~repro.core.machine.run_game` replays without calling
    :meth:`pick`, and ``restore``: the point itself when it carries
    player state, which the game installs instead of replaying.  The
    game sets ``capture`` to a function returning its players' state;
    each new branch point stores what it returns.  The first pick
    checks the log and ready set against the record, installs the
    recorded state and picks ``sibling``.  From there on (and from the
    first round of the root run) the scheduler keeps choosing the
    smallest awake ready participant, recording a :class:`BranchPoint`
    at each multi-candidate round and the sibling groups it leaves in
    ``branches`` as ``(point, siblings)`` pairs.  ``reduce`` switches
    DPOR on; off, every ready participant is branched on.
    ``last`` is the latest pick with the point it was made at: a run
    cut at the frontier defers that subtree as this entry.

    Duck-typed against :class:`repro.core.machine.GameScheduler`; it
    lives here so the reduction engine carries no import of the machine.
    """

    __slots__ = (
        "history", "restore", "capture", "dpor", "stats", "frontier_depth",
        "redundancy", "depth", "branches", "sleep", "last", "_resume",
        "_rounds", "_sleep_next", "_pending", "_scanned",
    )

    def __init__(
        self,
        resume: Resume,
        reduce: bool,
        stats: ReductionStats,
        frontier_depth: Optional[int] = None,
        redundancy=None,
    ):
        self._resume = resume
        #: Tids of the recorded rounds the game replays before a pick.
        self.history: Tuple[int, ...] = resume[0].history if resume else ()
        #: The branch point whose player state the game installs.
        self.restore: Optional[BranchPoint] = (
            resume[0] if resume and resume[0].state is not None else None
        )
        #: Set by the game: returns its players' state, for new points.
        self.capture: Optional[Callable[[], Any]] = None
        self.dpor = reduce
        self.stats = stats
        self.frontier_depth = frontier_depth
        self.redundancy = redundancy
        #: Decision picks made so far (the resumed pick included).
        self.depth = 0
        #: Resolved sibling groups: ``(branch point, [sibling tids])``.
        self.branches: List[Tuple[BranchPoint, List[int]]] = []
        #: Participants whose pending step commutes into an explored
        #: subtree; excluded from scheduling until a non-silent step.
        self.sleep: FrozenSet[int] = frozenset()
        self.last: Resume = resume
        #: The tid of every round so far.
        self._rounds: List[int] = list(self.history)
        #: Sleep set to install if the step just taken stays silent.
        self._sleep_next: Optional[FrozenSet[int]] = None
        #: Unresolved last decision: ``(chosen, siblings, point)``.
        self._pending: Optional[Tuple[int, List[int], BranchPoint]] = None
        self._scanned = 0

    def pick(self, log, ready: FrozenSet[int]) -> int:
        if self._resume is not None:
            return self._branch_round(log, ready)
        if obs_enabled():
            inc("machine.schedule_rounds")
        events = log.events
        # Whether the step since the last pick appended no non-sched
        # event.  A step taken from an empty log keeps no sleep set.
        quiet = all(event.is_sched() for event in events[self._scanned:])
        silent = quiet and self._scanned
        self._scanned = len(events)
        if self.dpor:
            if self._sleep_next is not None:
                self.sleep = self._sleep_next if silent else frozenset()
                self._sleep_next = None
            if self.sleep:
                self.sleep = self.sleep & ready
            self._resolve(ready, quiet)
        candidates = sorted(ready - self.sleep) if self.sleep else sorted(ready)
        if not candidates:
            # Every ready participant is asleep: each continuation
            # commutes, transposition by transposition, into a subtree
            # explored under an earlier sibling.
            self.stats.prune("dpor")
            raise PruneRun()
        if self.sleep:
            self.stats.prune("sleep", len(self.sleep))
        if len(candidates) == 1:
            tid = candidates[0]
            self._sleep_next = self.sleep
        else:
            if (
                self.frontier_depth is not None
                and self.depth >= self.frontier_depth
            ):
                raise DeferRun()
            if self.redundancy is not None:
                self.redundancy.branch(len(candidates))
            tid = candidates[0]
            siblings = candidates[1:]
            state = self.capture() if self.capture is not None else None
            point = BranchPoint(
                tuple(self._rounds), events, ready, self.sleep, self.depth,
                state,
            )
            if self.dpor:
                self._pending = (tid, siblings, point)
                self._sleep_next = self.sleep
            else:
                self.branches.append((point, siblings))
            self.depth += 1
            self.last = (point, tid)
        self._rounds.append(tid)
        return tid

    def _branch_round(self, log, ready: FrozenSet[int]) -> int:
        """Check the replay against the record, then pick the sibling."""
        point, tid = self._resume
        if obs_enabled():
            # Step-level redundancy: the replayed rounds and this one
            # re-execute a prefix that the parent run already executed.
            replayed = len(point.history) + 1
            inc("machine.schedule_rounds", replayed)
            inc("machine.schedule_rounds_replayed", replayed)
        events = log.events
        if events != point.events:
            self.diverged(
                log, len(point.history), "the log differs from the recorded one"
            )
        if ready != point.ready:
            self.diverged(
                log, len(point.history),
                f"ready set {sorted(ready)} differs from the recorded "
                f"{sorted(point.ready)}",
            )
        self._resume = None
        self.sleep = point.sleep
        self._scanned = len(events)
        self.depth = point.depth + 1
        if self.dpor:
            # Siblings explored before ``tid`` go (or stay) asleep while
            # its step is silent.
            self._sleep_next = point.sleep | frozenset(
                t for t in ready - point.sleep if t < tid
            )
        self._rounds.append(tid)
        return tid

    def diverged(self, log, round_index: int, reason: str) -> NoReturn:
        """Raise :class:`ReplayDivergence` for a replay off its record.

        ``log`` is the replayed log at round ``round_index``; the
        reported index is the first position where it differs from the
        log recorded at the branch round.
        """
        point = self._resume[0]
        replayed, recorded = log.events, point.events
        index = next(
            (i for i, (a, b) in enumerate(zip(replayed, recorded)) if a != b),
            None,
        )
        # Before the branch round the replayed log may still be a prefix
        # of the recorded one; it may never outgrow it.
        at_branch = round_index == len(point.history)
        if index is None and (
            len(replayed) > len(recorded)
            or (at_branch and len(replayed) < len(recorded))
        ):
            index = min(len(replayed), len(recorded))
        raise ReplayDivergence(round_index, index, reason)

    def _resolve(self, ready: FrozenSet[int], silent: bool) -> None:
        """Resolve the last decision; ``silent``: its step appended no
        non-sched event."""
        pending = self._pending
        if pending is None:
            return
        self._pending = None
        chosen, siblings, point = pending
        if silent and chosen in ready:
            # First-branch dominance: the chosen step touched no shared
            # state, so every sibling schedule commutes into the chosen
            # subtree.  (A finishing step left the ready set, so it is
            # conservatively kept.)
            self.stats.prune("dpor", len(siblings))
        else:
            self.branches.append((point, siblings))

    def finalize(self) -> None:
        """Resolve the last decision conservatively when the run ends."""
        pending = self._pending
        if pending is not None:
            self._pending = None
            _chosen, siblings, point = pending
            self.branches.append((point, siblings))

    def fresh(self) -> "ReducingScheduler":  # pragma: no cover - protocol
        raise TypeError("ReducingScheduler instances are single-use")
