"""The generator fingerprint encoder, kept as a test oracle.

:func:`canonical_fingerprint` below is
:func:`repro.parallel.canonical.canonical_fingerprint` as it was before
the encoder became one pass over a token buffer, verbatim except for
the ``kwdefaults`` token (a function's keyword-only defaults), the
encoding of builtin-container and builtin-scalar subclasses, and slots
declared across an MRO (beside a ``__dict__`` too, with private names
mangled), which both encoders emit.  Each node is a generator that
passes every token up a ``yield from`` chain as deep as the object
graph, and every event is re-encoded at each of its occurrences.
``tests/parallel/test_canonical.py`` checks that the engine's encoder
produces the same digest as this one on the keys the shipped stacks
compute and on generated values.
"""

from __future__ import annotations

import hashlib
import types
from enum import Enum
from typing import Any, Dict

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

_CONTAINERS = (tuple, list, set, frozenset, dict)

_SCALARS = {str: str.__str__, int: int.__int__, float: float.__float__,
            bytes: lambda value: bytes.__getitem__(value, slice(None))}


def canonical_fingerprint(obj: Any) -> str:
    """The SHA-256 hex digest of ``obj``'s canonical token stream."""
    hasher = hashlib.sha256()
    for token in _tokens(obj, {}, [0]):
        hasher.update(token)
        hasher.update(b"\x00")
    return hasher.hexdigest()


def _sub_digest(obj: Any, seen: Dict[int, int], counter) -> bytes:
    """Digest of one element, used to order sets and dict items."""
    hasher = hashlib.sha256()
    for token in _tokens(obj, seen, counter):
        hasher.update(token)
        hasher.update(b"\x00")
    return hasher.digest()


def _tokens(obj: Any, seen: Dict[int, int], counter):
    """Yield the canonical byte tokens of ``obj`` (depth-first)."""
    if obj is None or obj is True or obj is False:
        yield f"atom:{obj!r}".encode()
        return
    kind = type(obj)
    if kind is int:
        yield f"int:{obj}".encode()
        return
    if kind is float:
        yield f"float:{obj!r}".encode()
        return
    if kind is str:
        yield b"str:" + obj.encode("utf-8", "surrogatepass")
        return
    if kind is bytes:
        yield b"bytes:" + obj
        return

    # Everything below may recurse.  ``seen`` holds only the ancestors
    # of the *current path* (entries are removed on exit), so ``ref``
    # fires for true cycles while shared acyclic objects re-expand —
    # aliasing (object identity) never influences the fingerprint.
    oid = id(obj)
    if oid in seen:
        yield f"ref:{seen[oid]}".encode()
        return
    seen[oid] = counter[0]
    counter[0] += 1
    try:
        yield from _structure_tokens(obj, kind, seen, counter)
    finally:
        del seen[oid]


def _structure_tokens(obj: Any, kind: type, seen: Dict[int, int], counter):
    if kind in (tuple, list):
        yield f"seq:{len(obj)}".encode()
        for item in obj:
            yield from _tokens(item, seen, counter)
        return
    if kind in (set, frozenset):
        # Each element digests against a *copy* of the visited map, so
        # iteration order cannot leak into back-reference indices; equal
        # sets therefore digest equally regardless of build order.
        yield f"set:{len(obj)}".encode()
        base = counter[0]
        for digest in sorted(
            _sub_digest(item, dict(seen), [base]) for item in obj
        ):
            yield digest
        return
    if kind is dict:
        yield f"dict:{len(obj)}".encode()
        base = counter[0]
        entries = sorted(
            (_sub_digest(key, dict(seen), [base]), key, value)
            for key, value in obj.items()
        )
        for key_digest, _key, value in entries:
            yield key_digest
            yield from _tokens(value, seen, counter)
        return

    if isinstance(obj, types.FunctionType):
        yield f"fn:{obj.__qualname__}".encode()
        yield from _tokens(obj.__defaults__, seen, counter)
        if obj.__kwdefaults__:
            yield b"kwdefaults"
            yield from _tokens(obj.__kwdefaults__, seen, counter)
        if obj.__closure__:
            yield f"closure:{len(obj.__closure__)}".encode()
            for cell in obj.__closure__:
                try:
                    contents = cell.cell_contents
                except ValueError:  # empty cell (recursive def)
                    contents = "<empty-cell>"
                yield from _tokens(contents, seen, counter)
        yield from _code_tokens(obj.__code__, seen, counter)
        return
    if isinstance(obj, types.CodeType):
        yield from _code_tokens(obj, seen, counter)
        return
    if isinstance(obj, types.MethodType):
        yield f"method:{obj.__func__.__qualname__}".encode()
        yield from _tokens(obj.__self__, seen, counter)
        return
    if isinstance(obj, type):
        yield f"type:{obj.__module__}.{obj.__qualname__}".encode()
        return

    type_tag = f"{kind.__module__}.{kind.__qualname__}"

    # Log is a __slots__ class; its content is exactly its event tuple.
    if type_tag == "repro.core.log.Log":
        yield b"Log"
        yield from _tokens(obj.events, seen, counter)
        return

    subclass = isinstance(obj, _CONTAINERS)
    if subclass:
        yield f"sub:{type_tag}".encode()
        base = next(cls for cls in kind.__mro__ if cls in _CONTAINERS)
        yield from _structure_tokens(obj, base, seen, counter)
    elif isinstance(obj, tuple(_SCALARS)) and not isinstance(obj, Enum):
        subclass = True
        yield f"sub:{type_tag}".encode()
        base = next(cls for cls in kind.__mro__ if cls in _SCALARS)
        yield from _tokens(_SCALARS[base](obj), seen, counter)

    declared = [(cls, cls.__dict__["__slots__"]) for cls in kind.__mro__
                if "__slots__" in cls.__dict__]
    slots = {_mangled(cls, name) for cls, names in declared
             for name in ((names,) if isinstance(names, str) else names)}
    state = getattr(obj, "__dict__", None)
    if state is not None:
        items = sorted(
            (name, value)
            for name, value in state.items()
            if name not in _EXCLUDED_ATTRS
        )
        yield f"obj:{type_tag}:{len(items)}".encode()
        for name, value in items:
            yield b"attr:" + name.encode()
            yield from _tokens(value, seen, counter)
        # Beside a __dict__, only slots with content: not the dict
        # itself, not weak references.
        slots -= {"__dict__", "__weakref__"} | _EXCLUDED_ATTRS
        declared = declared if slots else []

    if declared:
        names = sorted(n for n in slots if n not in _EXCLUDED_ATTRS)
        yield f"slots:{type_tag}:{len(names)}".encode()
        for name in names:
            yield b"attr:" + name.encode()
            yield from _tokens(getattr(obj, name, None), seen, counter)
    elif state is None and not subclass:
        # Last resort: the type alone.  Never repr() — it embeds addresses.
        yield f"opaque:{type_tag}".encode()


def _mangled(cls: type, name: str) -> str:
    """``name`` as ``cls``'s body stores it: ``__x`` is ``_Cls__x``."""
    owner = cls.__name__.lstrip("_")
    if name.startswith("__") and not name.endswith("__") and owner:
        return f"_{owner}{name}"
    return name


def _code_tokens(code: types.CodeType, seen: Dict[int, int], counter):
    yield f"code:{code.co_name}:{code.co_argcount}:{code.co_kwonlyargcount}".encode()
    yield b"bytecode:" + code.co_code
    yield from _tokens(code.co_names, seen, counter)
    yield from _tokens(code.co_varnames, seen, counter)
    yield from _tokens(code.co_freevars, seen, counter)
    yield f"consts:{len(code.co_consts)}".encode()
    for const in code.co_consts:
        yield from _tokens(const, seen, counter)
