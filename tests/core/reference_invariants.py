"""The shipped rely/guarantee invariants as whole-log predicates, kept as
a test oracle.

Each function is the ``check`` predicate its builder wrapped before
invariants became replay folds, verbatim: it rescans the whole log on
every call.  ``tests/core/test_invariant_folds.py`` checks that every
fold agrees with its predicate at every prefix of every log it is
given.
"""

from __future__ import annotations

from typing import Any, List, Sequence

from repro.core.errors import Stuck
from repro.core.events import DEQ, ENQ, PULL
from repro.core.log import Log
from repro.core.replay import replay_shared
from repro.machine.atomics import ASTORE, CAS, FAI, SWAP
from repro.objects.mcs_lock import NIL, node_id, tail_cell
from repro.objects.shared_queue import replay_shared_queue
from repro.objects.ticket_lock import n_cell, replay_lock, t_cell


def replay_consistent(log: Log, locks: Sequence[Any]) -> bool:
    for lock in locks:
        try:
            replay_shared(log, lock)
            replay_lock(log, lock)
        except Stuck:
            return False
    return True


def ticket_protocol(log: Log, locks: Sequence[Any]) -> bool:
    for lock in locks:
        tc, nc = t_cell(lock), n_cell(lock)
        tickets: List[int] = []
        served = 0
        for event in log:
            if event.name == FAI and event.args:
                if event.args[0] == tc:
                    tickets.append(event.tid)
                elif event.args[0] == nc:
                    if served >= len(tickets) or tickets[served] != event.tid:
                        return False
                    served += 1
            elif event.name == PULL and event.args and event.args[0] == lock:
                if served >= len(tickets) or tickets[served] != event.tid:
                    return False
    return True


def mcs_protocol(log: Log, locks: Sequence[Any]) -> bool:
    for lock in locks:
        queue: List[int] = []
        tc = tail_cell(lock)
        for event in log:
            if event.name == SWAP and event.args and event.args[0] == tc:
                queue.append(event.tid)
            elif event.name == CAS and event.args and event.args[0] == tc:
                _, old, new = event.args
                if new == NIL:
                    if old != node_id(event.tid):
                        return False
                    if queue == [event.tid]:
                        queue.pop()
                    # A failed CAS (queue longer) is legal.
            elif (
                event.name == ASTORE
                and event.args
                and isinstance(event.args[0], tuple)
                and event.args[0][:1] == ("mcs_busy",)
                and event.args[0][1] == lock
                and len(event.args) > 1
                and event.args[1] == 0
            ):
                if not queue or queue[0] != event.tid:
                    return False
                queue.pop(0)
            elif event.name == PULL and event.args and event.args[0] == lock:
                if not queue or queue[0] != event.tid:
                    return False
    return True


def queue_wellformed(log: Log, queues: Sequence[Any]) -> bool:
    for queue in queues:
        try:
            contents = replay_shared_queue(log, queue)
        except Stuck:
            return False
        if len(contents) != len(set(contents)):
            return False
        # Also reject enqueues of already-present nodes.
        state: List[int] = []
        for event in log:
            if event.name == ENQ and event.args and event.args[0] == queue:
                if event.args[1] in state:
                    return False
                state.append(event.args[1])
            elif event.name == DEQ and event.args and event.args[0] == queue:
                if state:
                    state.pop(0)
    return True
