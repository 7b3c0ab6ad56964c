"""The shipped invariants as replay folds agree with their predicates.

``reference_invariants.py`` keeps each invariant's whole-log predicate
from before invariants became folds.  Every fold is compared with its
predicate at every prefix of the logs the shipped certifications
produce and of hypothesis-generated logs over each object's events,
violating logs included.  The fold side is read on growing snapshots
of one buffer, as ``run_local`` and ``env_events_valid`` read it, so
the comparison also covers resuming from a checkpoint and staying
violated after a step got stuck.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import ACQ, DEQ, ENQ, PULL, PUSH, REL, Event
from repro.core.log import Log, LogBuffer
from repro.machine.atomics import ALOAD, ASTORE, CAS, FAI, SWAP
from repro.objects.mcs_lock import NIL, busy_cell, mcs_protocol_inv, node_id, tail_cell
from repro.objects.shared_queue import queue_wellformed_inv
from repro.objects.ticket_lock import (
    n_cell,
    replay_consistent_inv,
    t_cell,
    ticket_protocol_inv,
)

import reference_invariants as reference

LOCKS = ("q0", "rdq")
QUEUES = ("rdq",)

#: (fold invariant, reference predicate) pairs over the shipped names.
PAIRS = [
    (replay_consistent_inv(LOCKS), lambda log: reference.replay_consistent(log, LOCKS)),
    (ticket_protocol_inv(LOCKS), lambda log: reference.ticket_protocol(log, LOCKS)),
    (mcs_protocol_inv(LOCKS), lambda log: reference.mcs_protocol(log, LOCKS)),
    (queue_wellformed_inv(QUEUES), lambda log: reference.queue_wellformed(log, QUEUES)),
]


def _disagreements(logs):
    """(invariant, prefix) pairs where a fold and its predicate differ."""
    verdicts = {}  # prefix events -> reference verdicts, computed once
    out = []
    for log in logs:
        buffer = LogBuffer()
        for k in range(len(log) + 1):
            if k:
                buffer.append(log.events[k - 1])
            prefix = log.events[:k]
            expected = verdicts.get(prefix)
            if expected is None:
                expected = verdicts[prefix] = [
                    predicate(Log(prefix)) for _, predicate in PAIRS
                ]
            for (inv, _), want in zip(PAIRS, expected):
                if inv.holds(buffer.snapshot()) != want:
                    out.append((inv.name, prefix))
    return out, verdicts


@pytest.fixture(scope="module")
def certified_logs():
    """Every log in the certificates of the Fig. 5 stack (ticket lock,
    shared queue, compiled lock, soundness game) and the MCS stack."""
    from repro.serve.protocol import STACKS, parse_job

    logs = set()
    for stack in ("fig5", "mcs"):
        params = parse_job({"stack": stack, "params": {}})["params"]
        for _name, cert in STACKS[stack]["runner"](params):
            logs.update(cert.all_logs())
    return sorted(logs, key=lambda log: (len(log), repr(log)))


def test_folds_match_predicates_on_certified_logs(certified_logs):
    assert certified_logs
    mismatches, verdicts = _disagreements(certified_logs)
    assert not mismatches, mismatches[:5]
    # The certified logs reach both verdicts of every invariant.
    for index, (inv, _) in enumerate(PAIRS):
        seen = {v[index] for v in verdicts.values()}
        assert True in seen, inv.name


TIDS = st.sampled_from([1, 2, 3])
LOCK = st.sampled_from(LOCKS)
VALUE = st.sampled_from([("env", 0), ("vundef",)])


def _events(*builders):
    return st.lists(st.one_of(*builders), max_size=10).map(Log)


TICKET_LOGS = _events(
    st.builds(lambda t, lock: Event(t, FAI, (t_cell(lock),)), TIDS, LOCK),
    st.builds(lambda t, lock: Event(t, FAI, (n_cell(lock),)), TIDS, LOCK),
    st.builds(lambda t, lock: Event(t, ALOAD, (n_cell(lock),)), TIDS, LOCK),
    st.builds(lambda t, lock: Event(t, PULL, (lock,)), TIDS, LOCK),
    st.builds(lambda t, lock, v: Event(t, PUSH, (lock, v)), TIDS, LOCK, VALUE),
    st.builds(lambda t, lock: Event(t, ACQ, (lock,)), TIDS, LOCK),
    st.builds(lambda t, lock, v: Event(t, REL, (lock, v)), TIDS, LOCK, VALUE),
)

NODE = st.sampled_from([NIL, node_id(1), node_id(2), node_id(3)])

MCS_LOGS = _events(
    st.builds(lambda t, lock: Event(t, SWAP, (tail_cell(lock), node_id(t))), TIDS, LOCK),
    st.builds(lambda t, lock, old: Event(t, CAS, (tail_cell(lock), old, NIL)), TIDS, LOCK, NODE),
    st.builds(
        lambda t, lock, owner, bit: Event(t, ASTORE, (busy_cell(lock, owner), bit)),
        TIDS, LOCK, TIDS, st.sampled_from([0, 1]),
    ),
    st.builds(lambda t, lock: Event(t, PULL, (lock,)), TIDS, LOCK),
    st.builds(lambda t, lock, v: Event(t, PUSH, (lock, v)), TIDS, LOCK, VALUE),
)

NID = st.sampled_from([1, 2, 3])

QUEUE_LOGS = _events(
    st.builds(lambda t, nid: Event(t, ENQ, ("rdq", nid)), TIDS, NID),
    st.builds(
        lambda t, ret: Event(t, DEQ, ("rdq",), ret),
        TIDS, st.sampled_from([None, NIL, 1, 2, 3]),
    ),
    st.builds(lambda t: Event(t, ACQ, ("rdq",)), TIDS),
    st.builds(lambda t, v: Event(t, REL, ("rdq", v)), TIDS, VALUE),
)


@pytest.mark.parametrize(
    "logs", [TICKET_LOGS, MCS_LOGS, QUEUE_LOGS], ids=["ticket", "mcs", "queue"]
)
def test_folds_match_predicates_on_generated_logs(logs):
    @settings(max_examples=150, deadline=None)
    @given(logs)
    def check(log):
        mismatches, _ = _disagreements([log])
        assert not mismatches, mismatches

    check()
