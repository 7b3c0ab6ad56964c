"""Incremental replay folds agree with from-scratch folds.

``ReplayFn`` checkpoints ``(k, state)`` per ``(fn, params)`` in the
memo table of a log buffer (shared by its snapshots) or of a standalone
log.  Every query here is compared with a plain left fold of the
queried events, over seeded random logs of three alphabets, in the
situations where a wrong checkpoint could leak into a result.
"""

import pickle
import random

import pytest

from repro.core import Event, Log, LogBuffer, Stuck
from repro.core.events import PULL, PUSH
from repro.core.machine import RoundRobinScheduler, run_game
from repro.core.replay import ReplayFn, replay_cache_info, replay_shared
from repro.machine import lx86_interface
from repro.machine.atomics import ALOAD, ASTORE, CAS, FAI, SWAP, replay_atomic
from repro.objects.ticket_lock import (
    acq_impl,
    n_cell,
    rel_impl,
    replay_ticket_counters,
    t_cell,
)

SEEDS = range(6)
LOCKS = ("a", "b")
CELLS = (("c", 0), ("c", 1))


def ticket_event(rng):
    lock = rng.choice(LOCKS)
    roll = rng.random()
    if roll < 0.45:
        return Event(rng.randint(1, 3), FAI, (t_cell(lock),))
    if roll < 0.9:
        return Event(rng.randint(1, 3), FAI, (n_cell(lock),))
    return Event(rng.randint(1, 3), ALOAD, (n_cell(lock),))


def atomic_event(rng):
    cell = rng.choice(CELLS)
    tid = rng.randint(1, 3)
    name = rng.choice((FAI, CAS, SWAP, ASTORE, ALOAD))
    if name == CAS:
        return Event(tid, CAS, (cell, rng.randint(0, 3), rng.randint(0, 3)))
    if name in (SWAP, ASTORE):
        return Event(tid, name, (cell, rng.randint(0, 20)))
    # A recorded return value that disagrees with the cell gets the
    # fold stuck ("forged log"), so keep most of them unrecorded.
    ret = rng.randint(0, 3) if rng.random() < 0.05 else None
    return Event(tid, name, (cell,), ret)


def shared_event(rng):
    loc = rng.choice(LOCKS)
    tid = rng.randint(1, 2)
    if rng.random() < 0.5:
        return Event(tid, PULL, (loc,))
    return Event(tid, PUSH, (loc, rng.randint(0, 9)))


#: alphabet -> (event generator, the (fn, params) keys queried on it)
ALPHABETS = {
    "ticket": (ticket_event, [(replay_ticket_counters, (lock,)) for lock in LOCKS]),
    "atomic": (
        atomic_event,
        [(replay_atomic, (cell,)) for cell in CELLS] + [(replay_atomic, (CELLS[0], 2))],
    ),
    "shared": (shared_event, [(replay_shared, (loc,)) for loc in LOCKS]),
}


def from_scratch(fn, events, params):
    """The reference: a plain left fold, or the reason it gets stuck."""
    try:
        state = fn._init(*params)
        for event in events:
            state = fn._step(state, event, *params)
    except Stuck as err:
        return ("stuck", err.reason)
    return ("ok", state)


def query(fn, log, params):
    try:
        return ("ok", fn(log, *params))
    except Stuck as err:
        return ("stuck", err.reason)


def assert_agrees(log, keys):
    for fn, params in keys:
        assert query(fn, log, params) == from_scratch(fn, log.events, params), (
            fn, params, log,
        )


def events_folded():
    return sum(info["events_folded"] for info in replay_cache_info().values())


def grown(seed, alphabet, chunks=8):
    """A buffer grown in random chunks, with a snapshot after each chunk."""
    rng = random.Random(f"{alphabet}/{seed}")
    make_event, keys = ALPHABETS[alphabet]
    buffer = LogBuffer()
    snapshots = []
    for _ in range(chunks):
        buffer.extend(make_event(rng) for _ in range(rng.randint(0, 6)))
        snapshots.append(buffer.snapshot())
    return rng, buffer, snapshots, keys


@pytest.mark.parametrize("alphabet", sorted(ALPHABETS))
@pytest.mark.parametrize("seed", SEEDS)
class TestAgainstFromScratch:
    def test_growing_snapshots(self, alphabet, seed):
        rng, buffer, snapshots, keys = grown(seed, alphabet)
        for snapshot in snapshots:
            assert_agrees(snapshot, keys)
            assert_agrees(snapshot, keys)  # answered from the checkpoint

    def test_older_snapshot_after_checkpoint_moved_past_it(self, alphabet, seed):
        rng, buffer, snapshots, keys = grown(seed, alphabet)
        assert_agrees(snapshots[-1], keys)
        order = list(snapshots)
        rng.shuffle(order)
        for snapshot in order:
            assert_agrees(snapshot, keys)
        assert_agrees(buffer.snapshot(), keys)

    def test_differing_params_interleaved(self, alphabet, seed):
        rng, buffer, snapshots, keys = grown(seed, alphabet)
        for snapshot in snapshots:
            for fn, params in rng.sample(keys, len(keys)):
                assert_agrees(snapshot, [(fn, params)])

    def test_pickled_log(self, alphabet, seed):
        rng, buffer, snapshots, keys = grown(seed, alphabet)
        middle = snapshots[len(snapshots) // 2]
        assert_agrees(middle, keys)
        copy = pickle.loads(pickle.dumps(middle))
        assert copy == middle
        assert_agrees(copy, keys)
        assert_agrees(pickle.loads(pickle.dumps(snapshots[-1])), keys)

    def test_two_buffers_sharing_an_event_prefix(self, alphabet, seed):
        rng = random.Random(f"prefix/{alphabet}/{seed}")
        make_event, keys = ALPHABETS[alphabet]
        prefix = [make_event(rng) for _ in range(rng.randint(0, 10))]
        first, second = LogBuffer(prefix), LogBuffer(prefix)
        for _ in range(6):
            buffer = rng.choice((first, second))
            buffer.append(make_event(rng))
            assert_agrees(first.snapshot(), keys)
            assert_agrees(second.snapshot(), keys)

    def test_standalone_logs(self, alphabet, seed):
        rng, buffer, snapshots, keys = grown(seed, alphabet)
        events = buffer.snapshot().events
        for log in (Log(events), buffer.snapshot()[: len(events) // 2],
                    buffer.snapshot().without_sched()):
            assert_agrees(log, keys)
            assert_agrees(log, keys)


class TestStuck:
    def racy_buffer(self):
        buffer = LogBuffer([Event(1, PULL, ("b",)), Event(1, PUSH, ("b", 4))])
        assert replay_shared(buffer.snapshot(), "b").value == 4
        # A mid-suffix race: the second pull of an owned location.
        buffer.extend([
            Event(2, PULL, ("b",)), Event(1, "noise"), Event(1, PULL, ("b",)),
            Event(2, PUSH, ("b", 5)),
        ])
        return buffer

    def test_stuck_reraises_from_the_last_good_prefix(self):
        buffer = self.racy_buffer()
        log = buffer.snapshot()
        with pytest.raises(Stuck) as first:
            replay_shared(log, "b")
        before = events_folded()
        with pytest.raises(Stuck) as again:
            replay_shared(log, "b")
        # The checkpoint stayed just before the racy pull: the retry
        # folds that one event again, and nothing before it.
        assert events_folded() - before == 1
        assert again.value.reason == first.value.reason

    def test_longer_log_after_stuck_stays_stuck(self):
        buffer = self.racy_buffer()
        with pytest.raises(Stuck):
            replay_shared(buffer.snapshot(), "b")
        buffer.extend([Event(2, PUSH, ("b", 6)), Event(1, PULL, ("b",))])
        log = buffer.snapshot()
        assert query(replay_shared, log, ("b",)) == from_scratch(
            replay_shared, log.events, ("b",)
        )
        assert query(replay_shared, log, ("b",))[0] == "stuck"


class TestAccounting:
    def test_hit_folds_nothing_and_miss_folds_the_suffix(self):
        counter = ReplayFn("Rcount_test", lambda: 0, lambda state, event: state + 1)
        buffer = LogBuffer([Event(1, "e")] * 3)
        assert counter(buffer.snapshot()) == 3
        buffer.extend([Event(2, "e")] * 2)
        assert counter(buffer.snapshot()) == 5
        assert counter(buffer.snapshot()) == 5
        info = counter.cache_info()
        assert (info["hits"], info["misses"], info["events_folded"]) == (1, 2, 5)
        assert info["currsize"] == 1
        assert replay_cache_info()["Rcount_test"]["events_folded"] == 5


def test_ticket_game_folds_each_event_once_per_key(monkeypatch):
    """Linearity guard for one Thm 2.2 game over the ticket lock.

    Each key's checkpoint only moves forward along the game's buffer, so
    ``step`` runs at most once per (appended event, key).  Re-folding
    the whole log on every query would be quadratic and break this.
    """
    keys = set()
    original = ReplayFn.__call__

    def recording(self, log, *params):
        keys.add((self, params))
        return original(self, log, *params)

    monkeypatch.setattr(ReplayFn, "__call__", recording)

    def worker(ctx, lock):
        for _ in range(3):
            yield from acq_impl(ctx, lock)
            yield from rel_impl(ctx, lock)
        return "done"

    base = lx86_interface([1, 2])
    before = events_folded()
    result = run_game(
        base,
        {1: (worker, ("q0",)), 2: (worker, ("q0",))},
        RoundRobinScheduler([1, 2]),
        fuel=20_000,
        max_rounds=400,
    )
    steps = events_folded() - before
    appended = len(result.log) - len(base.init_log)
    assert result.ok
    assert keys and appended > 50
    assert 0 < steps <= appended * len(keys)
