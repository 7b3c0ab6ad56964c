"""Static independence: may-race primitive pairs.

Derived from :mod:`repro.analysis.deps` closures, and advisory: it
feeds the lint catalog, never the scheduler.  Two primitives may race
when their exact emit footprints overlap — they can append the same
event names, so their interleaving order is observable in the log.
Overlap absence does not justify commuting appends in a sequence-valued
log, so this relation prunes nothing; it drives the L106/I204 warnings,
which flag racy-looking interfaces for human review.  Inexact
footprints never fire either rule.
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, FrozenSet, List, Tuple

from .deps import dependency_closure

_FOOTPRINT_MEMO: (
    "weakref.WeakKeyDictionary[Any, Dict[str, Tuple[FrozenSet[str], bool, bool]]]"
) = weakref.WeakKeyDictionary()


def prim_footprint(interface: Any, name: str) -> Tuple[FrozenSet[str], bool, bool]:
    """``(emits, exact, bracketed)`` for one primitive's slice.

    ``bracketed`` is True when any part of the slice opens a critical
    bracket (``ctx.enter_critical`` or an ``enters_critical``/
    ``exits_critical`` primitive flag) — events appended under a bracket
    are serialized by construction and do not race.
    """
    try:
        memo = _FOOTPRINT_MEMO.setdefault(interface, {})
    except TypeError:
        memo = {}
    cached = memo.get(name)
    if cached is not None:
        return cached
    prims = getattr(interface, "prims", None)
    prim = prims.get(name) if isinstance(prims, dict) else None
    if prim is None:
        result = (frozenset(), False, False)
    else:
        closure = dependency_closure(
            [(name, prim)],
            resolve=prims.get if isinstance(prims, dict) else None,
        )
        result = (frozenset(closure.emits), closure.exact, closure.critical)
    memo[name] = result
    return result


def may_race_pairs(interface: Any) -> List[Tuple[str, str, FrozenSet[str]]]:
    """Unbracketed primitive pairs with overlapping exact emit footprints.

    Returns ``(name_a, name_b, overlap)`` triples with ``name_a <
    name_b``.  Private primitives never participate (they are local by
    construction); pairs where either footprint is inexact are skipped —
    a may-race warning must never rest on a guess.
    """
    prims = getattr(interface, "prims", None)
    if not isinstance(prims, dict):
        return []
    shared: List[Tuple[str, FrozenSet[str]]] = []
    for name in sorted(prims):
        if getattr(prims[name], "kind", "shared") == "private":
            continue
        emits, exact, bracketed = prim_footprint(interface, name)
        if exact and emits and not bracketed:
            shared.append((name, emits))
    pairs: List[Tuple[str, str, FrozenSet[str]]] = []
    for i, (name_a, emits_a) in enumerate(shared):
        for name_b, emits_b in shared[i + 1 :]:
            overlap = emits_a & emits_b
            if overlap:
                pairs.append((name_a, name_b, overlap))
    return pairs


def guarantee_overlaps(
    interface: Any, pairs: List[Tuple[str, str, FrozenSet[str]]]
) -> List[Tuple[str, str, FrozenSet[str]]]:
    """The subset of may-race pairs whose overlap hits declared guarantees.

    An interface that *guarantees* an event name while two unbracketed
    primitives race on it promises more than its scheduling discipline
    can deliver — that is the I204 condition.
    """
    declared = getattr(getattr(interface, "guar", None), "events", None)
    if not declared:
        return []
    names = frozenset(declared)
    out: List[Tuple[str, str, FrozenSet[str]]] = []
    for name_a, name_b, overlap in pairs:
        hit = overlap & names
        if hit:
            out.append((name_a, name_b, hit))
    return out
