"""The one-pass fingerprint encoder against the generator encoder it
replaced (``reference_canonical.py``).

Every content key in the engine goes through
:func:`repro.parallel.canonical.canonical_fingerprint`, so a changed
token stream would silently orphan every existing cache entry, serve
store record and ledger fingerprint.  These tests require the engine's
encoder to produce the reference's digest:

* on every ``cache_key`` that a cold and then a warm, edited run of the
  ``incremental_edit`` stacks compute (their Compat keys walk whole log
  universes, where events recur thousands of times);
* on generated values: atoms, nested containers, shared and cyclic
  subobjects, events whose tokens are spliced from a chunk and events
  that take the plain path, logs, and values longer than one flush;

and pin the digests of a few fixed values, so that any later change to
the stream fails by name.  Values that differ only inside a container
subclass or an inherited slot must not share a digest.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_canonical as reference
import repro.objects.ticket_lock as ticket_lock
import repro.parallel.cache as cache
from repro.core import Event, check_soundness
from repro.core.log import Log
from repro.envflags import pinned
from repro.objects.mcs_lock import certify_mcs_lock
from repro.objects.shared_queue import certify_shared_queue
from repro.objects.ticket_lock import FAI, PUSH, n_cell
from repro.parallel.canonical import _FLUSH_TOKENS, canonical_fingerprint


def assert_same_digest(value):
    assert canonical_fingerprint(value) == reference.canonical_fingerprint(value)


# --- the keys of the incremental_edit stacks --------------------------------

#: One acquire/release per thread: the Thm 2.2 client of the MCS game.
CLIENT = [{tid: [("acq", ("q0",)), ("rel", ("q0",))] for tid in (1, 2)}]


def rel_impl_edited(ctx, lock):
    """``rel`` with one more bytecode constant, as an edit would leave it."""
    yield from ctx.call(PUSH, lock)
    yield from ctx.call(FAI, n_cell(lock))
    _edited = 7
    return None


def certify_stacks():
    ticket = ticket_lock.certify_ticket_lock([1, 2], lock="q0", use_c_source=False)
    mcs = certify_mcs_lock([1, 2, 3], lock="q0")
    queue = certify_shared_queue([1, 2, 3], queue="rdq")
    game = check_soundness(
        mcs.composed, clients=CLIENT, max_rounds=14, require_progress=False
    )
    return [ticket.composed.certificate, mcs.composed.certificate,
            queue["composed"].certificate, game]


def test_incremental_edit_keys_match_reference(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    kinds = []
    key_of = cache.cache_key

    def checked_key(kind, parts):
        key = key_of(kind, parts)
        assert key == reference.canonical_fingerprint(
            (kind, cache.ENGINE_VERSION) + tuple(parts)
        ), f"{kind} key differs from the reference encoder's"
        kinds.append(kind)
        return key

    monkeypatch.setattr(cache, "cache_key", checked_key)
    with pinned(jobs=1):
        cold = certify_stacks()
        cold_kinds = list(kinds)
        monkeypatch.setattr(ticket_lock, "rel_impl", rel_impl_edited)
        warm = certify_stacks()
    assert all(cert.ok for cert in cold + warm)
    warm_kinds = kinds[len(cold_kinds):]
    # The warm run re-keys every rule application, including the Compat
    # keys over whole log universes, and the edited obligations.
    for run in (cold_kinds, warm_kinds):
        assert run.count("Compat") == 10
        assert "Soundness" in run
        assert "obligation:scenario" in run


# --- generated values -------------------------------------------------------

ATOMS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.text(max_size=4), st.binary(max_size=4),
)
TIDS = st.integers(0, 3)
NAMES = st.sampled_from(["acq", "rel", "push", "FAI_t"])


def events(fields):
    """Events whose ``args`` are tuples of ``fields`` and ``ret`` one."""
    return st.builds(
        Event, TIDS, NAMES, st.lists(fields, max_size=3).map(tuple), fields
    )


#: Hashable values: set elements and dict keys.  Their events hold
#: atoms and tuples of atoms only, so each is encoded from a chunk.
HASHABLE = st.recursive(
    ATOMS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple),
        st.frozensets(inner, max_size=3),
        events(inner),
    ),
    max_leaves=8,
)


def logs(values):
    """Logs drawing each entry from a small pool of event objects, so
    the same object recurs (as interning makes it recur in a game)."""
    pool = st.lists(st.one_of(events(HASHABLE), events(values)), min_size=1,
                    max_size=4)
    return pool.flatmap(
        lambda pool: st.lists(st.sampled_from(pool), max_size=10).map(Log)
    )


def cyclic(items):
    """A list that holds itself after ``items``."""
    value = list(items)
    value.append(value)
    return value


VALUES = st.recursive(
    HASHABLE,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(HASHABLE, inner, max_size=3),
        st.sets(HASHABLE, max_size=3),
        st.builds(lambda shared: [shared, (shared, shared)], inner),
        st.lists(inner, max_size=3).map(cyclic),
        # A list in an event's fields: the plain path, with no chunk.
        events(st.lists(inner, max_size=2)),
        logs(inner),
    ),
    max_leaves=24,
)


@settings(max_examples=150, deadline=None)
@given(VALUES)
def test_generated_values_match_reference(value):
    assert_same_digest(value)


@settings(max_examples=40, deadline=None)
@given(st.lists(VALUES, min_size=1, max_size=3))
def test_values_under_a_cycle_match_reference(values):
    # Behind a cycle, every ``ref:<n>`` index counts the nodes before
    # it, including the ones an event chunk spans.
    outer = [values]
    outer.append([outer, values, outer])
    assert_same_digest(outer)


ACQ = Event(1, "acq", ("q0",))
FAI_T = Event(2, "FAI_t", (("ticket_t", "q0"),), 0)
PUSH_LIST = Event(1, "push", (["q0", ("env", 0)],))


class Node:
    """A hashable object with state: a key that can refer to itself."""


def cyclic_keys():
    """A dict and a set keyed by an object that refers to itself and to
    the dict: back-references inside a key's digest count from the
    index the dict's entries start at."""
    node = Node()
    node.events = (ACQ, FAI_T)
    node.me = node
    keyed = {node: [ACQ, FAI_T]}
    node.owner = keyed
    return [ACQ, keyed, {node}, FAI_T]


def fixed_values():
    def with_defaults(ctx, lock, limit=3, *, depth=2):
        return ctx, lock, limit, depth

    def make_closure(n):
        def inner():
            return n + len(cells)

        cells = [n]
        return inner

    def recursive(k):
        return recursive(k - 1) if k else 0

    def unbound():
        def inner():
            return later

        return inner
        later = 0  # never runs: ``inner``'s cell stays empty

    shared = (1, (2, 3))
    loop = {"name": "loop", "events": (ACQ, FAI_T)}
    loop["self"] = loop
    return {
        "true": True,
        "one": 1,
        "one-float": 1.0,
        "negative-zero": -0.0,
        "not-a-number": float("nan"),
        "nested": (1, [2.5, {"k": {3, 4}}], frozenset({"a", b"b"}), None),
        "shared": [shared, shared, {"x": shared}],
        "cyclic-dict": loop,
        "defaults-and-kwdefaults": with_defaults,
        "closures": (make_closure(1), make_closure(2), recursive, unbound()),
        "method": Log().append,
        "types-and-code": (Event, Log, with_defaults.__code__),
        "event-tuple-args": (ACQ, FAI_T, ACQ, {FAI_T: ACQ}, {ACQ, FAI_T}),
        "event-list-args": (PUSH_LIST, ACQ, PUSH_LIST),
        "cyclic-keys": cyclic_keys(),
        "log": Log([ACQ, FAI_T, PUSH_LIST, ACQ, FAI_T]),
        "longer-than-a-flush": [ACQ, FAI_T, Log([ACQ] * 5)] * _FLUSH_TOKENS
        + list(range(_FLUSH_TOKENS)),
    }


@pytest.mark.parametrize("name", sorted(fixed_values()))
def test_fixed_values_match_reference(name):
    assert_same_digest(fixed_values()[name])


# --- container subclasses and inherited slots -------------------------------

Pair = namedtuple("Pair", "left right")


class TypedPair(NamedTuple):
    left: int
    right: int


class Bounds(dict):
    pass


class Trace(list):
    pass


class Args(tuple):
    pass


class Tids(frozenset):
    pass


class Slotted(dict):
    __slots__ = ("label",)

    def __init__(self, label):
        super().__init__(a=1)
        self.label = label


class Cell:
    __slots__ = ("x",)


class Cell2(Cell):
    __slots__ = ("y",)

    def __init__(self, x, y):
        self.x = x
        self.y = y


class Name(str):
    pass


class Count(int):
    pass


class Ratio(float):
    pass


class Blob(bytes):
    pass


class MaskedBlob(bytes):
    """Its own conversions hide its content."""

    def __bytes__(self):
        return b""

    def __getitem__(self, index):
        return b""


class Plain:
    pass


class SlotOverDict(Plain):
    __slots__ = ("y",)

    def __init__(self, y):
        self.y = y


class Private:
    __slots__ = ("__x",)

    def __init__(self, x):
        self.__x = x


def subclass_pairs():
    """Two values a key must tell apart: of one type and differing only
    in content, or a subclass value and its builtin-base twin."""
    named = Bounds(a=1)
    named.label = "mine"
    return {
        "namedtuple": (Pair(1, 2), Pair(3, 4)),
        "NamedTuple": (TypedPair(1, 2), TypedPair(3, 4)),
        "dict-subclass": (Bounds(a=1), Bounds(a=2)),
        "list-subclass": (Trace([1]), Trace([2])),
        "tuple-subclass": (Args((1,)), Args((2,))),
        "frozenset-subclass": (Tids({1}), Tids({2})),
        "subclass-attribute": (named, Bounds(a=1)),
        "subclass-slot": (Slotted("mine"), Slotted("yours")),
        "inherited-slot": (Cell2(1, 2), Cell2(3, 2)),
        "namedtuple-and-tuple": (Pair(1, 2), (1, 2)),
        "dict-subclass-and-dict": (Bounds(a=1), {"a": 1}),
        "str-subclass": (Name("a"), Name("b")),
        "int-subclass": (Count(1), Count(2)),
        "float-subclass": (Ratio(1.0), Ratio(2.0)),
        "bytes-subclass": (Blob(b"a"), Blob(b"b")),
        "masked-bytes-subclass": (MaskedBlob(b"a"), MaskedBlob(b"b")),
        "slot-beside-dict": (SlotOverDict(1), SlotOverDict(2)),
        "mangled-slot": (Private(1), Private(2)),
    }


@pytest.mark.parametrize("name", sorted(subclass_pairs()))
def test_subclass_contents_reach_the_digest(name):
    first, second = subclass_pairs()[name]
    assert canonical_fingerprint(first) != canonical_fingerprint(second)
    assert_same_digest(first)
    assert_same_digest(second)


# --- pinned digests ---------------------------------------------------------


def pinned_values():
    loop = [ACQ, FAI_T]
    loop.append([loop, ACQ])
    return {
        "key-parts": ("Test", ("x",)),
        "atoms": (None, True, 1, 1.0, -0.0, "s", b"b"),
        "containers": {"bounds": (1, 2), "set": frozenset({"a", "b"}),
                       "list": [1.5, None]},
        "log": Log([ACQ, FAI_T, ACQ]),
        "cycle-after-events": loop,
    }


#: Digests of :func:`pinned_values` under the token stream every cache
#: key, serve job fingerprint and ledger fingerprint was built with.
PINNED = {
    "key-parts":
        "f95cc858008943970e48b319a794d342c85c480afa304ba80ad0565e2804bd23",
    "atoms":
        "52217fefae28b4f82454dc7172d27395e74a4b39f17901880265a19f2f5ad72a",
    "containers":
        "d902498b1bfa5813bb16a3a879c747a5fde89ba00c39ba05ee53f2aeaaf51554",
    "log":
        "d5d34ee9abbdf6005bdbad8d0cbfaf59becb3bfb15fa0cf34c50c5674d6b3599",
    "cycle-after-events":
        "732fe68e306f5ba03685fcce47f74e9f5d215e33ae31b3f1de81207053ab7bca",
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_digests(name):
    assert canonical_fingerprint(pinned_values()[name]) == PINNED[name]
