"""Canonical content fingerprints of verification-engine inputs.

The certificate cache (:mod:`repro.parallel.cache`) is content-addressed:
a rule application is keyed by *what was verified*, not by object
identity.  This module reduces an arbitrary engine input graph — layer
interfaces, modules, simulation relations, bounds, scenarios, even the
Python functions implementing specs and invariants — to a stable SHA-256
digest by emitting a canonical token stream:

* Functions fingerprint by their compiled code: bytecode, constants
  (recursively, including nested code objects), names, argument
  defaults (keyword-only ones too), and the *contents* of closure
  cells.  Editing a spec or an invariant therefore changes the
  fingerprint; renaming a local does too (bytecode-level identity is
  deliberately conservative).
* Objects fingerprint by type qualname plus their ``__dict__`` (sorted)
  and the slots of every class in the MRO, excluding per-instance caches
  (``_memo``, ``_hash``, ...) and certificate ``provenance`` —
  run-dependent state never reaches the key.
* Containers fingerprint structurally; sets and dict items are ordered
  by element digest, so iteration order is irrelevant.  A subclass of a
  builtin container (a named tuple, say) or scalar (not an ``enum``
  member) adds its type before its builtin value, attributes after it.
* Cycles are cut with ``ref:<n>`` back-references to the visitation
  index of an *ancestor on the current path*, so recursive structures
  (interfaces referring to each other) terminate deterministically.
  Acyclic sharing is deliberately re-expanded in the stream: whether two
  equal subobjects are one aliased object or two copies (event interning
  makes this run-dependent) must not change the fingerprint.

The encoder is one recursive pass that appends tokens to a buffer and
feeds it to the hasher once :data:`_FLUSH_TOKENS` tokens are waiting, so
no fingerprint holds its whole stream in memory.  An :class:`~repro.core.events.Event`
whose fields are atoms or tuples of atoms cannot hold a back-reference,
so its tokens do not depend on where it occurs: within one fingerprint
each such event object is encoded once, and its joined tokens are
spliced in at every later occurrence, advancing the visitation index by
the nodes they span.  The stream is the one a plain walk would emit;
only the work is shared.  A log universe holds thousands of occurrences
of a few hundred interned events.

**What the fingerprint does not cover:** module-level globals referenced
by name from inside a function body (the walk follows closures and
constants, not ``__globals__`` — that graph reaches the whole program).
Engine-behaviour changes are instead invalidated wholesale by
``ENGINE_VERSION`` in :mod:`repro.parallel.cache`.

Determinism notes: SHA-256 over explicit byte tokens — no ``hash()``
(per-process salted), no ``repr`` of bare objects (contains addresses).
"""

from __future__ import annotations

import functools
import hashlib
import types
from enum import Enum
from typing import Any, Dict, List, Optional, Tuple

from ..core.events import Event

#: Per-instance caches and run-dependent attributes that must never
#: influence a content address.
_EXCLUDED_ATTRS = {
    "_memo",       # Log / LogBuffer replay memo tables
    "_hash",       # cached Event/Log hashes (per-process salted)
    "_snapshot",   # LogBuffer snapshot cache
    "_stats",      # ReplayFn call accounting
    "_tables",     # ReplayFn live memo tables
    "_lint_memo",  # per-interface lint scratch cache (repro.analysis)
    "_compiled",   # mini-C closures, built on a function's first run
    "provenance",  # Certificate provenance: wall times, metrics, workers
}

#: Types whose values are one token and never a node of the walk.
_ATOM_KINDS = frozenset({type(None), bool, int, float, str, bytes})

#: The builtin containers, encoded by their items.
_CONTAINERS = (tuple, list, set, frozenset, dict)

#: The builtin value of a scalar subclass instance, whatever the
#: subclass overrides (``bytes.__bytes__`` is new in Python 3.11; a full
#: slice copies the bytes themselves).
_SCALARS = {str: str.__str__, int: int.__int__, float: float.__float__,
            bytes: lambda value: bytes.__getitem__(value, slice(None))}

#: Tokens buffered before the next node joins them and feeds the hasher.
_FLUSH_TOKENS = 2048

#: ``id(event) -> (event, chunk, span)``: an event's tokens joined by
#: the separator (``None`` when the event holds a non-atom) and the
#: number of nodes they span.  The entry keeps the event alive, so its
#: id is not reused while the fingerprint runs.
_Chunks = Dict[int, Tuple[Event, Optional[bytes], int]]


def canonical_fingerprint(obj: Any) -> str:
    """The SHA-256 hex digest of ``obj``'s canonical token stream."""
    return _digest(obj, {}, 0, {}).hexdigest()


def _digest(obj: Any, seen: Dict[int, int], base: int, chunks: _Chunks):
    """The hasher fed ``obj``'s tokens, each followed by ``b"\\x00"``,
    with visitation indices starting at ``base``."""
    hasher = hashlib.sha256()
    out: List[bytes] = []
    _encode(obj, base, out, hasher, seen, chunks)
    if out:
        _flush(out, hasher)
    return hasher


def _flush(out: List[bytes], hasher) -> None:
    hasher.update(b"\x00".join(out))
    hasher.update(b"\x00")
    out.clear()


def _encode(
    obj: Any, n: int, out: List[bytes], hasher, seen: Dict[int, int],
    chunks: _Chunks,
) -> int:
    """Append ``obj``'s tokens to ``out``; return the next visitation index.

    ``hasher`` is ``None`` while an event's chunk is being built: the
    chunk's tokens must stay in ``out``.
    """
    kind = type(obj)
    if kind is str:
        out.append(b"str:" + obj.encode("utf-8", "surrogatepass"))
        return n
    if kind is int:
        out.append(b"int:%d" % obj)
        return n
    if obj is None or obj is True or obj is False:
        out.append(b"atom:%a" % (obj,))
        return n
    if kind is float:
        out.append(b"float:%a" % obj)
        return n
    if kind is bytes:
        out.append(b"bytes:" + obj)
        return n
    if kind is Event:
        entry = chunks.get(id(obj))
        if entry is None:
            entry = chunks[id(obj)] = _event_chunk(obj)
        if entry[1] is not None:
            out.append(entry[1])
            return n + entry[2]

    if len(out) >= _FLUSH_TOKENS and hasher is not None:
        _flush(out, hasher)
    # Everything below may recurse.  ``seen`` holds only the ancestors
    # of the *current path* (entries are removed on exit), so ``ref``
    # fires for true cycles while shared acyclic objects re-expand —
    # aliasing (object identity) never influences the fingerprint.
    oid = id(obj)
    ref = seen.get(oid)
    if ref is not None:
        out.append(b"ref:%d" % ref)
        return n
    seen[oid] = n
    n = _structure(obj, kind, n + 1, out, hasher, seen, chunks)
    del seen[oid]
    return n


def _event_chunk(event: Event) -> Tuple[Event, Optional[bytes], int]:
    """The cache entry of one event (see :data:`_Chunks`).

    With atoms and tuples of atoms only, no token of the event is a
    ``ref`` or depends on the visitation index, so one encoding serves
    every occurrence.
    """
    for name, value in event.__dict__.items():
        if name not in _EXCLUDED_ATTRS and not _atoms_only(value):
            return event, None, 0
    out: List[bytes] = []
    span = _structure(event, Event, 1, out, None, {id(event): 0}, {})
    return event, b"\x00".join(out), span


def _atoms_only(value: Any) -> bool:
    """Whether ``value`` is an atom or a tuple of such values."""
    if type(value) is tuple:
        return all(_atoms_only(item) for item in value)
    return type(value) in _ATOM_KINDS


def _structure(
    obj: Any, kind: type, n: int, out: List[bytes], hasher,
    seen: Dict[int, int], chunks: _Chunks,
) -> int:
    if kind is tuple or kind is list:
        out.append(b"seq:%d" % len(obj))
        for item in obj:
            n = _encode(item, n, out, hasher, seen, chunks)
        return n
    if kind is set or kind is frozenset:
        # Each element digests from the same index, so iteration order
        # cannot leak into back-reference indices; equal sets therefore
        # digest equally regardless of build order.  An element's walk
        # leaves ``seen`` as it found it.
        out.append(b"set:%d" % len(obj))
        out.extend(sorted(_digest(item, seen, n, chunks).digest() for item in obj))
        return n
    if kind is dict:
        out.append(b"dict:%d" % len(obj))
        entries = sorted(
            (_digest(key, seen, n, chunks).digest(), key, value)
            for key, value in obj.items()
        )
        for key_digest, _key, value in entries:
            out.append(key_digest)
            n = _encode(value, n, out, hasher, seen, chunks)
        return n

    if kind is types.FunctionType:
        out.append(b"fn:" + obj.__qualname__.encode())
        n = _encode(obj.__defaults__, n, out, hasher, seen, chunks)
        if obj.__kwdefaults__:
            out.append(b"kwdefaults")
            n = _encode(obj.__kwdefaults__, n, out, hasher, seen, chunks)
        if obj.__closure__:
            out.append(b"closure:%d" % len(obj.__closure__))
            for cell in obj.__closure__:
                try:
                    contents = cell.cell_contents
                except ValueError:  # empty cell (recursive def)
                    contents = "<empty-cell>"
                n = _encode(contents, n, out, hasher, seen, chunks)
        return _code(obj.__code__, n, out, hasher, seen, chunks)
    if kind is types.CodeType:
        return _code(obj, n, out, hasher, seen, chunks)
    if kind is types.MethodType:
        out.append(f"method:{obj.__func__.__qualname__}".encode())
        return _encode(obj.__self__, n, out, hasher, seen, chunks)
    if isinstance(obj, type):
        out.append(f"type:{obj.__module__}.{obj.__qualname__}".encode())
        return n

    type_tag = f"{kind.__module__}.{kind.__qualname__}"

    # Log is a __slots__ class; its content is exactly its event tuple.
    if type_tag == "repro.core.log.Log":
        out.append(b"Log")
        return _encode(obj.events, n, out, hasher, seen, chunks)

    # A subclass (the exact types returned above): its type, its value as
    # its builtin base encodes it, then its attributes.
    base, slots, slots_beside_dict = _layout(kind)
    if base is not None:
        out.append(f"sub:{type_tag}".encode())
        if base in _SCALARS:
            n = _encode(_SCALARS[base](obj), n, out, hasher, seen, chunks)
        else:
            n = _structure(obj, base, n, out, hasher, seen, chunks)

    state = getattr(obj, "__dict__", None)
    if state is not None:
        names = sorted(name for name in state if name not in _EXCLUDED_ATTRS)
        out.append(f"obj:{type_tag}:{len(names)}".encode())
        for name in names:
            out.append(b"attr:" + name.encode())
            n = _encode(state[name], n, out, hasher, seen, chunks)
        slots = slots_beside_dict

    if slots is not None:
        out.append(f"slots:{type_tag}:{len(slots)}".encode())
        for name in slots:
            out.append(b"attr:" + name.encode())
            n = _encode(getattr(obj, name, None), n, out, hasher, seen, chunks)
    elif state is None and base is None:
        # Last resort: the type alone.  Never repr() — it embeds addresses.
        out.append(f"opaque:{type_tag}".encode())
    return n


@functools.lru_cache(maxsize=None)
def _layout(kind: type) -> Tuple[Optional[type], Optional[tuple], Optional[tuple]]:
    """How an instance of ``kind`` encodes after its type tag, worked out
    once per type: the builtin container or scalar base whose value a
    subclass adds (an ``enum`` member has none: ``_value_`` is among its
    attributes), then the sorted slot names read without a ``__dict__``
    and those read beside one (not ``__dict__`` nor ``__weakref__``),
    each ``None`` when none is read.  A private ``__x`` of class ``C`` is
    read as ``_C__x``."""
    base = next((cls for cls in kind.__mro__
                 if cls in _CONTAINERS or cls in _SCALARS), None)
    if base in _SCALARS and issubclass(kind, Enum):
        base = None
    declared = [(cls, cls.__dict__["__slots__"]) for cls in kind.__mro__
                if "__slots__" in cls.__dict__]
    slots = sorted({
        _mangled(cls, name) for cls, names in declared
        for name in ((names,) if isinstance(names, str) else names)
    } - _EXCLUDED_ATTRS)
    beside = [name for name in slots if name not in ("__dict__", "__weakref__")]
    return base, tuple(slots) if declared else None, tuple(beside) or None


def _mangled(cls: type, name: str) -> str:
    """``name`` as ``cls``'s body stores it: ``__x`` is ``_Cls__x``."""
    owner = cls.__name__.lstrip("_")
    if name.startswith("__") and not name.endswith("__") and owner:
        return f"_{owner}{name}"
    return name


def _code(
    code: types.CodeType, n: int, out: List[bytes], hasher,
    seen: Dict[int, int], chunks: _Chunks,
) -> int:
    out.append(
        f"code:{code.co_name}:{code.co_argcount}:{code.co_kwonlyargcount}".encode()
    )
    out.append(b"bytecode:" + code.co_code)
    n = _encode(code.co_names, n, out, hasher, seen, chunks)
    n = _encode(code.co_varnames, n, out, hasher, seen, chunks)
    n = _encode(code.co_freevars, n, out, hasher, seen, chunks)
    out.append(b"consts:%d" % len(code.co_consts))
    for const in code.co_consts:
        n = _encode(const, n, out, hasher, seen, chunks)
    return n
