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

import gc
import itertools
import os
import pickle
import sys
import threading
from collections import Counter, namedtuple
from dataclasses import dataclass
from typing import Any, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_canonical as reference
from cache_entries import certify_stacks
import repro.objects.ticket_lock as ticket_lock
import repro.parallel.cache as cache
import repro.parallel.canonical as canonical
from repro.clight.ast import Call, CFunction, Const, Var
from repro.core import Event
from repro.core.log import Log
from repro.envflags import pinned
from repro.objects.ticket_lock import FAI, PUSH, n_cell
from repro.parallel.canonical import _FLUSH_TOKENS, canonical_fingerprint


def assert_same_digest(value):
    assert canonical_fingerprint(value) == reference.canonical_fingerprint(value)


# --- the keys of the incremental_edit stacks --------------------------------


def rel_impl_edited(ctx, lock):
    """``rel`` with one more bytecode constant, as an edit would leave it."""
    yield from ctx.call(PUSH, lock)
    yield from ctx.call(FAI, n_cell(lock))
    _edited = 7
    return None


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


# --- the chunk store --------------------------------------------------------
#
# A code object, an event or a frozen ClightX node is encoded once per
# process and its tokens are spliced into every later key.  These cases
# check that the store serves no stream but the one the reference
# encoder emits for the value as it is now.


@pytest.mark.parametrize("order", list(itertools.permutations([1, True, 1.0])))
def test_equal_frozen_values_of_other_types_keep_their_streams(order):
    # Const(1) == Const(True) == Const(1.0): a store keyed by equality
    # would serve the first one's stream for the others.
    values = [Const(value) for value in order]
    digests = [canonical_fingerprint(value) for value in values]
    assert len(set(digests)) == 3
    for value in values:
        assert_same_digest(value)


def test_function_defaults_and_cells_are_read_at_every_key():
    def make(bound):
        def spec(ctx, lock, limit=3):
            return ctx, lock, limit, bound

        return spec

    spec = make([1])
    seen = [canonical_fingerprint(spec)]
    spec.__defaults__ = (4,)
    seen.append(canonical_fingerprint(spec))
    spec.__closure__[0].cell_contents = [2]
    seen.append(canonical_fingerprint(spec))
    assert len(set(seen)) == 3
    assert_same_digest(spec)


@dataclass(frozen=True)
class Box:
    items: Any


@dataclass(frozen=True)
class Knot:
    name: str
    next: Any = None


def test_frozen_values_holding_a_list_are_read_at_every_key():
    box = Box([1])
    event = Event(1, "push", (["q0"],))
    before = canonical_fingerprint((box, event))
    box.items.append(2)
    event.args[0].append("q1")
    assert canonical_fingerprint((box, event)) != before
    assert_same_digest((box, event))


def test_frozen_values_made_cyclic_take_the_plain_walk():
    self_loop = Knot("a")
    object.__setattr__(self_loop, "next", self_loop)
    first, second = Knot("b"), Knot("c")
    object.__setattr__(first, "next", (second,))
    object.__setattr__(second, "next", first)
    looped = Event(1, "push")
    object.__setattr__(looped, "args", (looped, Const(1)))
    for value in (self_loop, first, [second, first], looped):
        assert_same_digest(value)


def test_chunks_of_dropped_values_are_collected():
    events = [Event(1, "push", ("q0", k)) for k in range(10_000)]
    logs = [Log([event]) for event in events]
    for log in logs:
        canonical_fingerprint(log)
    chunked = {id(event) for event in events}
    assert chunked <= canonical._CHUNKS.keys()
    del events, logs, log
    gc.collect()
    assert not chunked & canonical._CHUNKS.keys()


def test_fingerprinting_leaves_pickles_unchanged():
    event = Event(2, "FAI_t", (("ticket_t", "q0"),), 0)
    values = (
        event,
        Log([event, ACQ, event]),
        CFunction("rel", ["lock"], [Call(None, "push", [Var("lock")])]),
    )
    before = [pickle.dumps(value) for value in values]
    for value in values:
        canonical_fingerprint(value)
        canonical_fingerprint([value, value])
    assert [pickle.dumps(value) for value in values] == before


def test_threads_sharing_the_store_get_the_serial_digests():
    """Threads that meet the same new values at once each see a built
    entry, a value still being built (which they walk plain) or none."""

    def fresh_values():
        event = Event(1, "push", ("q0", ("env", 3)))
        body = [Call(None, "push", [Var("lock"), Const(k)]) for k in range(8)]
        return [CFunction(f"f{k}", ["lock"], body[k:]) for k in range(8)] + [
            Log([event] * 4), (event, Const(True)),
        ]

    expected = [reference.canonical_fingerprint(value) for value in fresh_values()]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _round in range(20):
            values = fresh_values()
            results = [None] * 6

            def work(slot):
                results[slot] = [canonical_fingerprint(value) for value in values]

            threads = [threading.Thread(target=work, args=(slot,)) for slot in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert results == [expected] * 6
    finally:
        sys.setswitchinterval(switch)


# --- sharing across the keys of one run -------------------------------------


def test_edited_keys_encode_each_immutable_value_once(tmp_path, monkeypatch):
    """Across the keys of an edited run from a filled cache, with the
    store emptied first as in a fresh interpreter, no code object, event
    or frozen value with a chunk is encoded twice."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    with pinned(jobs=1):
        certify_stacks()
    monkeypatch.setattr(ticket_lock, "rel_impl", rel_impl_edited)
    encoded, codes, values = Counter(), Counter(), {}
    structure, code = canonical._structure, canonical._code

    def counted_structure(obj, kind, *rest):
        if canonical._layout(kind).frozen:
            encoded[id(obj)] += 1
            values[id(obj)] = obj
        return structure(obj, kind, *rest)

    def counted_code(obj, *rest):
        codes[id(obj)] += 1
        return code(obj, *rest)

    canonical._CHUNKS.clear()
    monkeypatch.setattr(canonical, "_structure", counted_structure)
    monkeypatch.setattr(canonical, "_code", counted_code)
    with pinned(jobs=1):
        assert all(cert.ok for cert in certify_stacks())
    assert codes and encoded
    assert max(codes.values()) == 1
    again = [values[oid] for oid, count in encoded.items() if count > 1]
    # Only values that hold something mutable (a primitive's spec
    # function) are walked again, and no event is among them.
    assert all(canonical._CHUNKS[id(value)][1] is None for value in again)
    assert not any(isinstance(value, Event) for value in again)


def test_incremental_edit_keys_match_reference_in_fork_workers(tmp_path, monkeypatch):
    """Fork workers inherit the store: with two workers, the keys of a
    cold and an edited warm run, wherever computed, match the reference
    encoder's and are the keys a serial run computes."""
    records = tmp_path / "keys"
    records.mkdir()
    key_of = cache.cache_key
    rel_impl = ticket_lock.rel_impl

    def run(jobs, checked):
        def recorded_key(kind, parts):
            key = key_of(kind, parts)
            matches = not checked or key == reference.canonical_fingerprint(
                (kind, cache.ENGINE_VERSION) + tuple(parts)
            )
            with open(records / f"{jobs}-{os.getpid()}.tsv", "a") as out:
                out.write(f"{kind}\t{key}\t{matches}\n")
            return key

        monkeypatch.setattr(cache, "cache_key", recorded_key)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / f"cache-{jobs}"))
        monkeypatch.setattr(ticket_lock, "rel_impl", rel_impl)
        with pinned(jobs=jobs):
            cold = certify_stacks()
            monkeypatch.setattr(ticket_lock, "rel_impl", rel_impl_edited)
            warm = certify_stacks()
        assert all(cert.ok for cert in cold + warm)
        return sorted(
            line.split("\t") for path in records.glob(f"{jobs}-*.tsv")
            for line in path.read_text().splitlines()
        )

    serial = run(1, checked=False)
    forked = run(2, checked=True)
    assert [kind for kind, _key, matches in forked if matches != "True"] == []
    assert [row[:2] for row in forked] == [row[:2] for row in serial]
