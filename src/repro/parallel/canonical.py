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
no fingerprint holds its whole stream in memory.

**The chunk store.**  A code object, or an instance of a frozen
dataclass (an :class:`~repro.core.events.Event`, a ClightX syntax node)
whose fields are atoms, tuples or frozensets of such values, code
objects or further such values, holds no back-reference, so its tokens
do not depend on where it occurs.  Each such value is encoded once per
process: :data:`_CHUNKS` keeps its tokens joined by the separator and
the nodes they span, keyed by the value's identity, and every later
occurrence, in this fingerprint or any later one, splices them in and
advances the visitation index by that span.  The stream is the one a
plain walk would emit; only the work is shared.  Everything else takes
the plain walk at every occurrence, so a change to it always reaches
the key: functions, dicts, lists, interfaces, modules, logs, and a
frozen value holding one of them or made cyclic.  An entry holds a weak
reference to its value and goes when the value does, so an identity is
never reused while its entry lives; nothing is stored on the value, so
pickles of it (cache entries) do not change.  Fork workers inherit the
store.  The header tokens of an object (``obj:<type>:<n>`` and its
sorted ``attr:`` tokens) are likewise worked out once per type and
attribute set.

What the store trusts: a frozen dataclass is not changed with
``object.__setattr__`` after construction, except for attributes no key
reads (:data:`_EXCLUDED_ATTRS`, such as an event's cached ``_hash``).
A value changed that way would keep the tokens it first had.

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
import weakref
from enum import Enum
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

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

#: The chunk store: ``id(value) -> (ref, chunk, span)`` for each immutable
#: value encoded in this process.  ``ref`` is a weak reference whose
#: callback drops the entry when the value goes, so an id is never reused
#: while its entry lives; ``chunk`` is the value's tokens joined by the
#: separator, ``None`` when the value takes the plain walk; ``span`` is
#: the number of nodes the tokens span below the value's own.
_CHUNKS: Dict[int, Tuple[Optional[weakref.KeyedRef], Optional[bytes], int]] = {}

#: The entry of a value whose chunk is being built: a cycle back to the
#: value walks it plain.
_BUILDING = (None, None, 0)


def canonical_fingerprint(obj: Any) -> str:
    """The SHA-256 hex digest of ``obj``'s canonical token stream."""
    return _digest(obj, {}, 0).hexdigest()


def _digest(obj: Any, seen: Dict[int, int], base: int):
    """The hasher fed ``obj``'s tokens, each followed by ``b"\\x00"``,
    with visitation indices starting at ``base``."""
    hasher = hashlib.sha256()
    out: List[bytes] = []
    _encode(obj, base, out, hasher, seen)
    if out:
        _flush(out, hasher)
    return hasher


def _flush(out: List[bytes], hasher) -> None:
    hasher.update(b"\x00".join(out))
    hasher.update(b"\x00")
    out.clear()


def _encode(
    obj: Any, n: int, out: List[bytes], hasher, seen: Dict[int, int]
) -> int:
    """Append ``obj``'s tokens to ``out``; return the next visitation index.

    ``hasher`` is ``None`` while a chunk is being built: the chunk's
    tokens must stay in ``out``.
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
    if _layout(kind).frozen:
        entry = _CHUNKS.get(id(obj)) or _chunk(obj, kind)
        if entry[1] is not None:
            out.append(entry[1])
            return n + 1 + entry[2]

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
    n = _structure(obj, kind, n + 1, out, hasher, seen)
    del seen[oid]
    return n


def _chunk(obj: Any, kind: type):
    """Encode ``obj`` on its own and store its entry (see :data:`_CHUNKS`).

    Only a value whose every part is settled gets a chunk.  Its tokens
    then hold no ``ref`` and no visitation index, so one encoding
    serves every occurrence in every fingerprint.
    """
    oid = id(obj)
    _CHUNKS[oid] = _BUILDING
    try:
        chunk, span = None, 0
        if all(map(_settled, _parts(obj, kind))):
            out: List[bytes] = []
            span = _structure(obj, kind, 1, out, None, {oid: 0}) - 1
            chunk = b"\x00".join(out)
        entry = (weakref.KeyedRef(obj, _drop, oid), chunk, span)
    except BaseException:
        _CHUNKS.pop(oid, None)
        raise
    _CHUNKS[oid] = entry
    return entry


def _drop(ref: weakref.KeyedRef, chunks=_CHUNKS) -> None:
    """Forget the entry of a value that is gone.  The store is bound as a
    default: a callback may run while the module is being torn down."""
    if chunks.get(ref.key, _BUILDING)[0] is ref:
        del chunks[ref.key]


def _parts(obj: Any, kind: type):
    """What a frozen value's tokens are made of, besides atoms."""
    if kind is types.CodeType:
        return obj.co_consts  # the other fields are tuples of names
    return (value for name, value in obj.__dict__.items()
            if name not in _EXCLUDED_ATTRS)


def _settled(value: Any) -> bool:
    """Whether ``value``'s tokens can never change: an atom, a tuple or
    frozenset of settled values, or a frozen value with a chunk."""
    kind = type(value)
    if kind in _ATOM_KINDS:
        return True
    if kind is tuple or kind is frozenset:
        return all(map(_settled, value))
    if _layout(kind).frozen:
        return (_CHUNKS.get(id(value)) or _chunk(value, kind))[1] is not None
    return False


def _structure(
    obj: Any, kind: type, n: int, out: List[bytes], hasher,
    seen: Dict[int, int],
) -> int:
    if kind is tuple or kind is list:
        out.append(b"seq:%d" % len(obj))
        for item in obj:
            n = _encode(item, n, out, hasher, seen)
        return n
    if kind is set or kind is frozenset:
        # Each element digests from the same index, so iteration order
        # cannot leak into back-reference indices; equal sets therefore
        # digest equally regardless of build order.  An element's walk
        # leaves ``seen`` as it found it.
        out.append(b"set:%d" % len(obj))
        out.extend(sorted(_digest(item, seen, n).digest() for item in obj))
        return n
    if kind is dict:
        out.append(b"dict:%d" % len(obj))
        entries = sorted(
            (_digest(key, seen, n).digest(), key, value)
            for key, value in obj.items()
        )
        for key_digest, _key, value in entries:
            out.append(key_digest)
            n = _encode(value, n, out, hasher, seen)
        return n

    if kind is types.FunctionType:
        out.append(b"fn:" + obj.__qualname__.encode())
        n = _encode(obj.__defaults__, n, out, hasher, seen)
        if obj.__kwdefaults__:
            out.append(b"kwdefaults")
            n = _encode(obj.__kwdefaults__, n, out, hasher, seen)
        if obj.__closure__:
            out.append(b"closure:%d" % len(obj.__closure__))
            for cell in obj.__closure__:
                try:
                    contents = cell.cell_contents
                except ValueError:  # empty cell (recursive def)
                    contents = "<empty-cell>"
                n = _encode(contents, n, out, hasher, seen)
        # The code is not a node of its own here: splice its chunk as
        # it is, without the node a code constant adds.
        code = obj.__code__
        entry = _CHUNKS.get(id(code)) or _chunk(code, types.CodeType)
        if entry[1] is not None:
            out.append(entry[1])
            return n + entry[2]
        return _code(code, n, out, hasher, seen)
    if kind is types.CodeType:
        return _code(obj, n, out, hasher, seen)
    if kind is types.MethodType:
        out.append(f"method:{obj.__func__.__qualname__}".encode())
        return _encode(obj.__self__, n, out, hasher, seen)
    if isinstance(obj, type):
        out.append(f"type:{obj.__module__}.{obj.__qualname__}".encode())
        return n

    layout = _layout(kind)
    # Log is a __slots__ class; its content is exactly its event tuple.
    if layout.log:
        out.append(b"Log")
        return _encode(obj.events, n, out, hasher, seen)

    # A subclass (the exact types returned above): its type, its value as
    # its builtin base encodes it, then its attributes.
    base = layout.base
    if base is not None:
        out.append(layout.sub)
        if base in _SCALARS:
            n = _encode(_SCALARS[base](obj), n, out, hasher, seen)
        else:
            n = _structure(obj, base, n, out, hasher, seen)

    slots = layout.slots
    state = getattr(obj, "__dict__", None)
    if state is not None:
        header, attrs = _attrs(kind, tuple(state))
        out.append(header)
        for token, name in attrs:
            out.append(token)
            n = _encode(state[name], n, out, hasher, seen)
        slots = layout.beside

    if slots is not None:
        header, attrs = slots
        out.append(header)
        for token, name in attrs:
            out.append(token)
            n = _encode(getattr(obj, name, None), n, out, hasher, seen)
    elif state is None and base is None:
        # Last resort: the type alone.  Never repr() — it embeds addresses.
        out.append(layout.opaque)
    return n


#: A header token, then one ``attr:`` token and attribute name per
#: attribute read.
_Attrs = Tuple[bytes, Tuple[Tuple[bytes, str], ...]]


class _Layout(NamedTuple):
    """How an instance of one type encodes after its type tag."""

    #: Whether its instances go through the chunk store: code objects,
    #: and instances of a class decorated as a frozen dataclass itself
    #: (a subclass it does not freeze may add attributes) that have a
    #: ``__dict__``, weak references, no builtin base and no slots.
    frozen: bool
    #: Whether it is :class:`~repro.core.log.Log`.
    log: bool
    #: The builtin container or scalar base whose value a subclass adds,
    #: and its ``sub:`` token.
    base: Optional[type]
    sub: bytes
    #: The slots read without a ``__dict__`` and those read beside one.
    slots: Optional[_Attrs]
    beside: Optional[_Attrs]
    #: The token of an instance with no state to read.
    opaque: bytes


@functools.lru_cache(maxsize=None)
def _layout(kind: type) -> _Layout:
    """``kind``'s layout, worked out once per type.  An ``enum`` member has
    no builtin base: ``_value_`` is among its attributes.  Slots are read
    sorted, across the MRO, neither ``__dict__`` nor ``__weakref__``
    beside a ``__dict__``, and each of ``slots`` and ``beside`` is
    ``None`` when none is read.  A private ``__x`` of class ``C`` is read
    as ``_C__x``."""
    tag = f"{kind.__module__}.{kind.__qualname__}"
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
    params = kind.__dict__.get("__dataclass_params__")
    frozen = kind is types.CodeType or (
        params is not None and params.frozen
        and kind.__weakrefoffset__ != 0 and kind.__dictoffset__ != 0
        and base is None and not beside
    )
    return _Layout(
        frozen=frozen,
        log=tag == "repro.core.log.Log",
        base=base,
        sub=f"sub:{tag}".encode(),
        slots=_attr_tokens("slots", tag, slots) if declared else None,
        beside=_attr_tokens("slots", tag, beside) if beside else None,
        opaque=f"opaque:{tag}".encode(),
    )


@functools.lru_cache(maxsize=4096)
def _attrs(kind: type, names: Tuple[str, ...]) -> _Attrs:
    """The tokens of a ``kind`` instance whose ``__dict__`` holds
    ``names``, in its order, worked out once per type and name tuple."""
    kept = sorted(name for name in names if name not in _EXCLUDED_ATTRS)
    return _attr_tokens("obj", f"{kind.__module__}.{kind.__qualname__}", kept)


def _attr_tokens(prefix: str, tag: str, names) -> _Attrs:
    return (f"{prefix}:{tag}:{len(names)}".encode(),
            tuple((b"attr:" + name.encode(), name) for name in names))


def _mangled(cls: type, name: str) -> str:
    """``name`` as ``cls``'s body stores it: ``__x`` is ``_Cls__x``."""
    owner = cls.__name__.lstrip("_")
    if name.startswith("__") and not name.endswith("__") and owner:
        return f"_{owner}{name}"
    return name


def _code(
    code: types.CodeType, n: int, out: List[bytes], hasher,
    seen: Dict[int, int],
) -> int:
    out.append(
        f"code:{code.co_name}:{code.co_argcount}:{code.co_kwonlyargcount}".encode()
    )
    out.append(b"bytecode:" + code.co_code)
    n = _encode(code.co_names, n, out, hasher, seen)
    n = _encode(code.co_varnames, n, out, hasher, seen)
    n = _encode(code.co_freevars, n, out, hasher, seen)
    out.append(b"consts:%d" % len(code.co_consts))
    for const in code.co_consts:
        n = _encode(const, n, out, hasher, seen)
    return n
