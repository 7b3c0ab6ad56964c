"""Boolean ``REPRO_*`` environment switches, parsed one way.

A typo in a switch must not quietly read as "off": :func:`env_flag`
accepts a closed set of spellings and raises on anything else, as the
``REPRO_JOBS`` and ``REPRO_LINT`` parsers do.
"""

from __future__ import annotations

import os

_ON = frozenset({"1", "true", "yes", "on"})
_OFF = frozenset({"0", "false", "no", "off"})


def env_flag(name: str, default: bool = False) -> bool:
    """Whether the boolean environment variable ``name`` is on.

    The value is stripped and case-folded.  ``1``/``true``/``yes``/``on``
    read as on; ``0``/``false``/``no``/``off`` read as off; empty or
    unset reads as ``default``; any other value raises
    :class:`ValueError` naming the variable and its valid values.
    """
    raw = os.environ.get(name, "")
    value = raw.strip().lower()
    if not value:
        return default
    if value in _ON:
        return True
    if value in _OFF:
        return False
    raise ValueError(
        f"{name}={raw!r} is not a boolean; expected one of "
        f"{'/'.join(sorted(_ON))} (on) or {'/'.join(sorted(_OFF))} "
        "(off), or unset"
    )
