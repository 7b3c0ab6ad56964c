"""Canonical content fingerprints of verification-engine inputs.

The certificate cache (:mod:`repro.parallel.cache`) is content-addressed:
a rule application is keyed by *what was verified*, not by object
identity.  This module reduces an arbitrary engine input graph — layer
interfaces, modules, simulation relations, bounds, scenarios, even the
Python functions implementing specs and invariants — to a stable SHA-256
digest by emitting a canonical token stream:

* Functions fingerprint by their compiled code: bytecode, constants
  (recursively, including nested code objects), names, argument
  defaults, and the *contents* of closure cells.  Editing a spec or an
  invariant therefore changes the fingerprint; renaming a local does
  too (bytecode-level identity is deliberately conservative).
* Objects fingerprint by type qualname plus their ``__dict__`` (sorted),
  excluding per-instance caches (``_memo``, ``_hash``, ...) and
  certificate ``provenance`` — run-dependent state never reaches the key.
* Containers fingerprint structurally; sets and dict items are ordered
  by element digest, so iteration order is irrelevant.
* Cycles are cut with ``ref:<n>`` back-references to the visitation
  index of an *ancestor on the current path*, so recursive structures
  (interfaces referring to each other) terminate deterministically.
  Acyclic sharing is deliberately re-expanded: whether two equal
  subobjects are one aliased object or two copies (event interning
  makes this run-dependent) must not change the fingerprint.

**What the fingerprint does not cover:** module-level globals referenced
by name from inside a function body (the walk follows closures and
constants, not ``__globals__`` — that graph reaches the whole program).
Engine-behaviour changes are instead invalidated wholesale by
``ENGINE_VERSION`` in :mod:`repro.parallel.cache`.

Determinism notes: SHA-256 over explicit byte tokens — no ``hash()``
(per-process salted), no ``repr`` of bare objects (contains addresses).
"""

from __future__ import annotations

import hashlib
import types
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
        return

    slots = getattr(kind, "__slots__", None)
    if slots is not None:
        names = sorted(n for n in slots if n not in _EXCLUDED_ATTRS)
        yield f"slots:{type_tag}:{len(names)}".encode()
        for name in names:
            yield b"attr:" + name.encode()
            yield from _tokens(getattr(obj, name, None), seen, counter)
        return

    # Last resort: the type alone.  Never repr() — it embeds addresses.
    yield f"opaque:{type_tag}".encode()


def _code_tokens(code: types.CodeType, seen: Dict[int, int], counter):
    yield f"code:{code.co_name}:{code.co_argcount}:{code.co_kwonlyargcount}".encode()
    yield b"bytecode:" + code.co_code
    yield from _tokens(code.co_names, seen, counter)
    yield from _tokens(code.co_varnames, seen, counter)
    yield from _tokens(code.co_freevars, seen, counter)
    yield f"consts:{len(code.co_consts)}".encode()
    for const in code.co_consts:
        yield from _tokens(const, seen, counter)
