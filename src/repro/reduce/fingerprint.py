"""The shared state-fingerprint (hash-consing) helper.

The profiler's redundancy accounting (:mod:`repro.obs.profile`) counts
distinct enumeration states with it, so "replay-equivalent" has one
definition.  It lives here, beside the reducer the profiler measures.

Fingerprints are Python hashes of immutable part tuples.  They are used
as identities (hash-consing), never dereferenced back to states, and
they decide nothing the engine explores: a collision can only make a
redundancy count smaller.
"""

from __future__ import annotations

from typing import Any


def state_fingerprint(*parts: Any) -> int:
    """A hash-consed fingerprint of an enumeration state.

    Parts must be hashable (logs, tuples, frozensets, scalars).  Equal
    part tuples always produce equal fingerprints; distinct tuples
    collide only with ordinary ``hash`` probability.
    """
    return hash(parts)
