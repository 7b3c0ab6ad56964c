"""The engine's ``REPRO_*`` settings, parsed in one place and pinned.

:func:`config_from_env` parses the four engine settings into one frozen
:class:`EngineConfig`: ``REPRO_JOBS`` (a worker cap clamped to the CPUs,
``0`` for one worker per CPU, unset for serial), ``REPRO_REDUCE`` (a
boolean, default on: whether the game enumerator runs DPOR), ``REPRO_LINT``
(``strict`` | ``record`` | ``off``, default ``record``) and the
certificate cache (on when ``REPRO_CACHE`` is truthy or
``REPRO_CACHE_DIR`` is set).  Each rule application pins that config
for its whole extent (:func:`pinned`), so every reader beneath it — the
lint gate, the cache, the enumerators, the pool and forked workers —
sees one value, and one outermost rule application parses the
environment once.  :func:`pinned` is also the one override.

The parse is strict: a bad value raises :class:`ValueError` naming its
variable, and so does any ``REPRO_*`` name missing from
:data:`KNOWN_VARS`, so a misspelt or retired switch is never ignored.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, List, Optional

_ON = frozenset({"1", "true", "yes", "on"})
_OFF = frozenset({"0", "false", "no", "off"})

LINT_MODES = ("strict", "record", "off")

#: The five engine settings; the four observability arming variables,
#: which their :mod:`repro.obs` modules read at import or flush; and the
#: test suite's session capture (``tests/conftest.py``).
KNOWN_VARS = (
    "REPRO_JOBS", "REPRO_REDUCE", "REPRO_LINT", "REPRO_CACHE",
    "REPRO_CACHE_DIR", "REPRO_PROFILE", "REPRO_HEARTBEAT", "REPRO_LEDGER",
    "REPRO_LEDGER_OBJECT", "REPRO_OBS_CAPTURE",
)

_JOBS_HINT = "expected a worker count N (0 means one worker per CPU)"


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


def cpu_budget() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def default_cache_dir() -> str:
    """The cache root when ``REPRO_CACHE_DIR`` is unset."""
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


@dataclass(frozen=True)
class EngineConfig:
    """The settings of one rule application.  ``jobs`` is the worker
    count outside a pool worker; ``reduce`` says whether the game
    enumerator runs DPOR (:mod:`repro.reduce`); ``cache_dir`` is
    ``None`` while the certificate cache is off."""

    jobs: int
    reduce: bool
    lint: str
    cache_dir: Optional[str]


def _worker_count(requested: int, label: str) -> int:
    if requested < 0:
        raise ValueError(f"{label} is negative; {_JOBS_HINT}")
    return requested or cpu_budget()


def _lint_mode(raw: str, label: str) -> str:
    mode = raw.strip().lower()
    if mode not in LINT_MODES:
        raise ValueError(f"unknown {label} {raw!r}; expected one of {LINT_MODES}")
    return mode


def config_from_env() -> EngineConfig:
    """Parse the engine settings from the environment."""
    unknown = sorted(
        name for name in os.environ
        if name.startswith("REPRO_") and name not in KNOWN_VARS
    )
    if unknown:
        raise ValueError(
            f"unknown environment variable {', '.join(unknown)}; the "
            f"known REPRO_* variables are {', '.join(KNOWN_VARS)}"
        )
    raw_jobs = os.environ.get("REPRO_JOBS", "").strip()
    jobs = 1
    if raw_jobs:
        try:
            requested = int(raw_jobs)
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS={raw_jobs!r} is not an integer; {_JOBS_HINT}"
            ) from None
        # A cap: workers beyond the cores only add fork and
        # context-switch overhead to CPU-bound enumeration.
        jobs = min(_worker_count(requested, f"REPRO_JOBS={raw_jobs!r}"),
                   cpu_budget())
    reduce = env_flag("REPRO_REDUCE", default=True)
    raw_lint = os.environ.get("REPRO_LINT", "").strip().lower()
    lint = _lint_mode(raw_lint, "REPRO_LINT mode") if raw_lint else "record"
    cache_on = env_flag("REPRO_CACHE")  # parsed first: a typo raises either way
    cache_dir = os.environ.get("REPRO_CACHE_DIR", "").strip() or None
    if cache_dir is None and cache_on:
        cache_dir = default_cache_dir()
    return EngineConfig(jobs=jobs, reduce=reduce, lint=lint, cache_dir=cache_dir)


_PINS: List[EngineConfig] = []


def engine_config() -> EngineConfig:
    """The innermost pinned config, else a fresh parse of the environment."""
    return _PINS[-1] if _PINS else config_from_env()


@contextmanager
def pinned(
    *,
    jobs: Optional[int] = None,
    reduce: Optional[bool] = None,
    lint: Optional[str] = None,
) -> Iterator[EngineConfig]:
    """Pin :func:`engine_config`, with any overrides, for the block.

    ``jobs`` binds, unclamped (``0`` means one worker per CPU), so a
    test crosses real process boundaries on any host; ``reduce`` is a
    bool; ``lint`` one of :data:`LINT_MODES`.
    """
    changes: Dict[str, Any] = {}
    if jobs is not None:
        if isinstance(jobs, bool) or not isinstance(jobs, int):
            raise ValueError(f"jobs={jobs!r} is not an integer; {_JOBS_HINT}")
        changes["jobs"] = _worker_count(jobs, f"jobs={jobs!r}")
    if reduce is not None:
        if not isinstance(reduce, bool):
            raise ValueError(f"reduce={reduce!r} is not a bool")
        changes["reduce"] = reduce
    if lint is not None:
        changes["lint"] = _lint_mode(lint, "lint mode")
    _PINS.append(replace(engine_config(), **changes))
    try:
        yield _PINS[-1]
    finally:
        _PINS.pop()
