"""DPOR path extension, branch-point resumption, sleep sets, transposition.

The exhaustive game enumerator (:func:`repro.core.machine.enumerate_game_logs`)
explores scheduling decisions with the scheduler of this module.  It
*extends* the path at each decision point (recording the sibling
branches for later) and resumes each sibling at the recorded branch
point.  With the reduction axes on it also keeps sleep sets that
suppress schedules equivalent to already-explored ones, and cuts runs
whose state was already explored; with every axis off it branches on
every ready participant.

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

Independence relation (``dpor``)
    A scheduling step is *silent* when it appends no non-sched event.
    Under the lint discipline (I201: every shared observation emits an
    event; I202: private primitives touch only ``ctx.priv``) a silent
    step neither reads nor writes shared state, so it commutes with
    every adjacent step modulo hardware-scheduling events.  Silence is
    the only independence oracle the scheduler can observe (a step's
    footprint is known only after it executes), which shapes both
    pruning rules below.

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

State key (``transpo``)
    At every scheduling point past the branch round the scheduler
    fingerprints ``(non-sched log, per-participant step counts, ready
    set, sleep set)`` with the profiler's own hash-consing helper.
    Deterministic lint-clean players are a function of exactly that
    state: the log *is* the shared state in the push/pull model, each
    player's observations are replay-determined by its events'
    positions in the log, and the step counts pin down program points
    that silent steps do not surface in the log.  The sleep set is part
    of the key because a revisit carrying a *smaller* sleep set owes
    schedules the first visit suppressed — the classic unsound
    interaction between sleep sets and state caching — so only a state
    revisited with an identical sleep set is cut.  Replayed rounds and
    the branch round are never looked up (replaying a recorded prefix
    must not cut itself), and the table is scoped to one explored
    subtree — the same scope serially and under ``REPRO_JOBS``, which
    is what keeps reduced enumeration byte-stable across worker counts.

Static independence seeds (``static-indep``)
    The interprocedural dependency analysis
    (:mod:`repro.analysis.independence`) classifies whole players as
    *invisible*: every primitive in their transitive slice appends no
    event, queries nothing, reads neither log nor buffer, opens no
    critical bracket, and touches ``ctx`` only through thread-private
    state.  Such a player's single step commutes with **every** other
    step — including the finishing step the dynamic rule must keep,
    because the static argument shows the return value is deterministic
    and position-independent.  The scheduler therefore *defers* an
    invisible participant instead of branching on it: at a
    multi-candidate decision, invisible siblings are dropped (their
    subtrees map, by delaying the invisible step, onto schedules inside
    the kept subtrees), while the participant itself stays schedulable
    and still runs at later forced or first-candidate rounds, so every
    completion is preserved.  Invisible participants never enter sleep
    sets — sleep suppresses a participant outright, deferral only
    refuses to branch on it.  One honest caveat, recorded in DESIGN.md
    §5: a run that hits the ``max_rounds`` bound with a deferred
    invisible step in its final round is merged with its bound-hitting
    siblings; verdicts are unaffected (the truncated runs differ only
    in the invisible player's private return), and passing stacks never
    truncate.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, FrozenSet, List, NamedTuple, NoReturn, Optional, Set,
    Tuple,
)

from ..core.errors import ReplayDivergence
from ..obs.metrics import inc
from ..obs.trace import obs_enabled
from .fingerprint import extend_chain, state_fingerprint
from .stats import ReductionStats

DPOR = "dpor"
TRANSPO = "transpo"
STATIC_INDEP = "static-indep"


class PruneRun(Exception):
    """Cut the current game run: its continuation was already explored."""


class DeferRun(Exception):
    """Cut the current subtree at the frontier for a worker process."""


class TranspositionTable:
    """Hash-consed set of explored state fingerprints (one subtree)."""

    __slots__ = ("keys", "stats")

    def __init__(self, stats: ReductionStats):
        self.keys: Set[int] = set()
        self.stats = stats

    def seen(self, key: int) -> bool:
        if key in self.keys:
            self.stats.table(hit=True)
            return True
        self.keys.add(key)
        self.stats.table(hit=False)
        return False


class BranchPoint(NamedTuple):
    """A multi-candidate decision round, recorded for its sibling runs.

    ``history`` is the tid of every earlier round; ``events`` and
    ``ready`` are the log and the ready set at this round, held by
    reference.  Then comes the scheduler's state after this round's
    sleep update: the sleep set, the per-participant step counts, the
    non-sched event chain and the decision depth (picks made at earlier
    branch points).  ``state`` is the players' state at this round, as
    the game's ``capture`` returned it, or None when the game captures
    none and siblings re-execute the recorded rounds.
    """

    history: Tuple[int, ...]
    events: Tuple[Any, ...]
    ready: FrozenSet[int]
    sleep: FrozenSet[int]
    counts: Dict[int, int]
    chain: int
    depth: int
    state: Any = None


#: A DFS stack entry: resume at the branch point and pick the sibling
#: there.  ``None`` is the root run, which starts from the first round.
Resume = Optional[Tuple[BranchPoint, int]]


class ReducingScheduler:
    """Resuming scheduler with path extension, sleep sets, transposition.

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
    ``branches`` as ``(point, siblings)`` pairs.
    ``last`` is the latest pick with the point it was made at: a run
    cut at the frontier defers that subtree as this entry.

    Duck-typed against :class:`repro.core.machine.GameScheduler`; it
    lives here so the reduction engine carries no import of the machine.
    """

    __slots__ = (
        "history", "restore", "capture", "dpor", "table", "stats",
        "frontier_depth", "redundancy", "invisible", "depth", "counts",
        "branches", "sleep", "last", "_resume", "_rounds", "_sleep_next",
        "_pending", "_scanned", "_chain",
    )

    def __init__(
        self,
        resume: Resume,
        axes: FrozenSet[str],
        stats: ReductionStats,
        table: Optional[TranspositionTable] = None,
        frontier_depth: Optional[int] = None,
        redundancy=None,
        invisible: FrozenSet[int] = frozenset(),
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
        self.dpor = DPOR in axes
        self.table = table if TRANSPO in axes else None
        #: Statically invisible participants (``static-indep`` seeds):
        #: never branched on as siblings, still schedulable.
        self.invisible = invisible if STATIC_INDEP in axes else frozenset()
        self.stats = stats
        self.frontier_depth = frontier_depth
        self.redundancy = redundancy
        #: Decision picks made so far (the resumed pick included).
        self.depth = 0
        #: Per-participant scheduled-step counts (every round).
        self.counts: Dict[int, int] = {}
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
        self._chain = 0

    def pick(self, log, ready: FrozenSet[int]) -> int:
        if self._resume is not None:
            return self._branch_round(log, ready)
        if obs_enabled():
            inc("machine.schedule_rounds")
        events = log.events
        chain = self._chain
        for event in events[self._scanned:]:
            if not event.is_sched():
                chain = extend_chain(chain, event)
        silent = chain == self._chain and self._scanned
        self._chain = chain
        self._scanned = len(events)
        if self.dpor:
            if self._sleep_next is not None:
                self.sleep = self._sleep_next if silent else frozenset()
                self._sleep_next = None
            if self.sleep:
                self.sleep = self.sleep & ready
        self._resolve(ready)
        candidates = sorted(ready - self.sleep) if self.sleep else sorted(ready)
        if not candidates:
            # Every ready participant is asleep: each continuation
            # commutes, transposition by transposition, into a subtree
            # explored under an earlier sibling.
            self.stats.prune(DPOR)
            raise PruneRun()
        if self.table is not None and self.table.seen(
            state_fingerprint(
                chain, tuple(sorted(self.counts.items())), ready, self.sleep
            )
        ):
            self.stats.prune(TRANSPO)
            raise PruneRun()
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
            if self.invisible:
                # Static deferral: an invisible sibling's subtree maps,
                # by delaying its purely local step, onto schedules in
                # the kept subtrees; the participant itself stays
                # schedulable at later rounds.
                kept = [s for s in siblings if s not in self.invisible]
                if len(kept) != len(siblings):
                    self.stats.prune(STATIC_INDEP, len(siblings) - len(kept))
                siblings = kept
            # A point is resumed only for its siblings, or as the entry
            # of a subtree cut at the frontier.
            state = None
            if self.capture is not None and (
                siblings or self.frontier_depth is not None
            ):
                state = self.capture()
            point = BranchPoint(
                tuple(self._rounds), events, ready, self.sleep,
                dict(self.counts), chain, self.depth, state,
            )
            if self.dpor:
                self._pending = (tid, siblings, point)
                self._sleep_next = self.sleep
            elif siblings:
                self.branches.append((point, siblings))
            self.depth += 1
            self.last = (point, tid)
        self.counts[tid] = self.counts.get(tid, 0) + 1
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
        self.counts = dict(point.counts)
        self._chain = point.chain
        self._scanned = len(events)
        self.depth = point.depth + 1
        if self.dpor:
            # Siblings explored before ``tid`` go (or stay) asleep while
            # its step is silent.  Invisible participants were never
            # explored as siblings (deferral dropped them), so they must
            # stay awake — their completion happens inside this subtree.
            self._sleep_next = point.sleep | frozenset(
                t for t in ready - point.sleep
                if t < tid and t not in self.invisible
            )
        self.counts[tid] = self.counts.get(tid, 0) + 1
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

    def _resolve(self, ready: Optional[FrozenSet[int]]) -> None:
        pending = self._pending
        if pending is None:
            return
        self._pending = None
        chosen, siblings, point = pending
        silent = self._chain == point.chain
        still_running = ready is not None and chosen in ready
        if silent and still_running:
            # First-branch dominance: the chosen step touched no shared
            # state, so every sibling schedule commutes into the chosen
            # subtree.  (A finishing step left the ready set, so it is
            # conservatively kept.)
            self.stats.prune(DPOR, len(siblings))
        elif siblings:
            self.branches.append((point, siblings))

    def finalize(self) -> None:
        """Resolve the last decision conservatively when the run ends."""
        pending = self._pending
        if pending is not None:
            self._pending = None
            _chosen, siblings, point = pending
            if siblings:
                self.branches.append((point, siblings))

    def fresh(self) -> "ReducingScheduler":  # pragma: no cover - protocol
        raise TypeError("ReducingScheduler instances are single-use")
