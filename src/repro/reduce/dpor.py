"""DPOR path extension, sleep sets and the transposition table.

The exhaustive game enumerator (:func:`repro.core.machine.enumerate_game_logs`)
explores scheduling-decision prefixes.  The seed engine replays a whole
game per prefix just to reach one new decision point; this module
supplies a scheduler that instead *extends* the path at each decision
point (recording the sibling branches for later), keeps sleep sets that
suppress schedules equivalent to already-explored ones, and cuts runs
whose state was already explored.

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
    At every post-script scheduling point the scheduler fingerprints
    ``(non-sched log, per-participant step counts, ready set, sleep
    set)`` with the profiler's own hash-consing helper.  Deterministic
    lint-clean players are a function of exactly that state: the log
    *is* the shared state in the push/pull model, each player's
    observations are replay-determined by its events' positions in the
    log, and the step counts pin down program points that silent steps
    do not surface in the log.  The sleep set is part of the key
    because a revisit carrying a *smaller* sleep set owes schedules the
    first visit suppressed — the classic unsound interaction between
    sleep sets and state caching — so only a state revisited with an
    identical sleep set is cut.  Keys are only consulted past the
    decision script (replaying a recorded prefix must not cut itself)
    and the table is scoped to one explored subtree — the same scope
    serially and under ``REPRO_JOBS``, which is what keeps reduced
    enumeration byte-stable across worker counts.

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

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

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


class ReducingScheduler:
    """Scripted scheduler with path extension, sleep sets, transposition.

    Follows ``script`` exactly (the recorded decision prefix), then
    keeps choosing the smallest awake ready participant instead of
    raising ``NeedChoice`` — recording sibling branches in ``branches``
    as ``(depth, siblings)`` pairs, where ``depth`` indexes into
    ``picks``.  Only multi-candidate rounds consume a script entry or
    record a pick; rounds forced by a singleton ready set or by sleep
    are replayed positionally, which is what lets a recorded prefix
    rebuild the very sleep sets that forced them.

    Duck-typed against :class:`repro.core.machine.GameScheduler`; it
    lives here so the reduction engine carries no import of the machine.
    """

    __slots__ = (
        "script", "cursor", "dpor", "table", "stats", "frontier_depth",
        "redundancy", "picks", "counts", "branches", "sleep", "invisible",
        "_sleep_next", "_pending", "_scanned", "_chain",
    )

    def __init__(
        self,
        script: Tuple[int, ...],
        axes: FrozenSet[str],
        stats: ReductionStats,
        table: Optional[TranspositionTable] = None,
        frontier_depth: Optional[int] = None,
        redundancy=None,
        invisible: FrozenSet[int] = frozenset(),
    ):
        self.script = tuple(script)
        self.cursor = 0
        self.dpor = DPOR in axes
        self.table = table if TRANSPO in axes else None
        #: Statically invisible participants (``static-indep`` seeds):
        #: never branched on as siblings, still schedulable.
        self.invisible = invisible if STATIC_INDEP in axes else frozenset()
        self.stats = stats
        self.frontier_depth = frontier_depth
        self.redundancy = redundancy
        #: Decision picks made so far (script + extensions).
        self.picks: List[int] = list(script)
        #: Per-participant scheduled-step counts (every round).
        self.counts: Dict[int, int] = {}
        #: Resolved sibling groups: ``(depth, [sibling tids])``.
        self.branches: List[Tuple[int, List[int]]] = []
        #: Participants whose pending step commutes into an explored
        #: subtree; excluded from scheduling until a non-silent step.
        self.sleep: FrozenSet[int] = frozenset()
        #: Sleep set to install if the step just taken stays silent.
        self._sleep_next: Optional[FrozenSet[int]] = None
        #: Unresolved last decision: ``(chosen, siblings, depth, chain)``.
        self._pending: Optional[Tuple[int, List[int], int, int]] = None
        self._scanned = 0
        self._chain = 0

    def pick(self, log, ready: FrozenSet[int]) -> int:
        if obs_enabled():
            # Step-level redundancy: rounds spent re-executing the
            # recorded prefix, which a sibling run already executed.
            inc("machine.schedule_rounds")
            if self.cursor < len(self.script):
                inc("machine.schedule_rounds_replayed")
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
        if self.cursor < len(self.script):
            if len(candidates) == 1:
                # A forced round (singleton ready set, or sleep left one
                # participant awake) recorded no pick, so it consumes no
                # script entry on replay either.
                tid = candidates[0]
                self._sleep_next = self.sleep
            else:
                tid = self.script[self.cursor]
                self.cursor += 1
                if tid not in ready:
                    # Stale decision (participant already finished):
                    # pick deterministically, as ScriptScheduler does.
                    tid = candidates[0]
                else:
                    # Rebuild the sleep set along the recorded path:
                    # siblings explored before ``tid`` go (or stay)
                    # asleep while its step is silent.  Invisible
                    # participants were never explored as siblings
                    # (deferral dropped them), so they must stay awake —
                    # their completion happens inside this subtree.
                    self._sleep_next = self.sleep | frozenset(
                        t for t in candidates
                        if t < tid and t not in self.invisible
                    )
            self.counts[tid] = self.counts.get(tid, 0) + 1
            return tid
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
                and len(self.picks) >= self.frontier_depth
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
            if self.dpor:
                self._pending = (tid, siblings, len(self.picks), chain)
                self._sleep_next = self.sleep
            elif siblings:
                self.branches.append((len(self.picks), siblings))
            self.picks.append(tid)
        self.counts[tid] = self.counts.get(tid, 0) + 1
        return tid

    def _resolve(self, ready: Optional[FrozenSet[int]]) -> None:
        pending = self._pending
        if pending is None:
            return
        self._pending = None
        chosen, siblings, depth, chain_before = pending
        silent = self._chain == chain_before
        still_running = ready is not None and chosen in ready
        if silent and still_running:
            # First-branch dominance: the chosen step touched no shared
            # state, so every sibling schedule commutes into the chosen
            # subtree.  (A finishing step left the ready set, so it is
            # conservatively kept.)
            self.stats.prune(DPOR, len(siblings))
        elif siblings:
            self.branches.append((depth, siblings))

    def finalize(self) -> None:
        """Resolve the last decision conservatively when the run ends."""
        pending = self._pending
        if pending is not None:
            self._pending = None
            _chosen, siblings, depth, _chain = pending
            if siblings:
                self.branches.append((depth, siblings))

    def fresh(self) -> "ReducingScheduler":  # pragma: no cover - protocol
        raise TypeError("ReducingScheduler instances are single-use")
