"""Host-speed reference: a fixed pure-Python loop, and time scaling by it.

The reference host is a shared 2-core VM whose speed drifts by up to
2x between periods lasting seconds to minutes, with CPU time tracking
wall time.  Every time the benchmark gates on is therefore scaled to a
fixed host speed: ``scaled = raw * REFERENCE_S / ref``, where ``ref`` is
this loop timed next to the measurement and ``REFERENCE_S`` is its time
on the reference host in a fast period.  The raw times are printed
beside the scaled ones.
"""

import time

#: Time of :func:`host_reference` on the reference host (fast period).
REFERENCE_S = 0.025

_KEYS = [(i % 97, i % 7) for i in range(1_000)]


def host_reference() -> float:
    """Time the fixed loop: integer arithmetic, tuple keys, dict updates."""
    started = time.perf_counter()
    table = {}
    total = 0
    for _ in range(120):
        for key in _KEYS:
            total += key[0] * key[1]
            table[key] = table.get(key, 0) + 1
    return time.perf_counter() - started


def scale(seconds: float, ref: float) -> float:
    """``seconds`` as they would read at the reference host's speed."""
    return seconds * REFERENCE_S / ref
