"""Boundary tracer: spans around the checker's public layer boundaries.

The benchmark measures per-layer cost from its own code, without edits
to the program: :func:`install` replaces each boundary in
:data:`BOUNDARIES` with a wrapper that records one span per call (per
*resumption* for generator functions such as ``Interp.run_function``,
so time the caller spends between resumptions is not charged to the
interpreter).  A span is ``[name, start, end, parent]``; spans stay in
memory and :meth:`Tracer.write` dumps them at the end of the sample.

Every boundary's statistics are ``calls``, ``total_s`` (outermost calls
only, so recursion is not counted twice) and ``self_s`` (time not
covered by a nested traced span).  One tracer serves one thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``(module under repro, qualified name)`` of every traced boundary,
#: grouped by the layer it belongs to.
BOUNDARIES: Tuple[Tuple[str, str], ...] = (
    # objects: the cold time of each Table 2 object
    ("objects.ticket_lock", "certify_ticket_lock"),
    ("objects.mcs_lock", "certify_mcs_lock"),
    ("objects.shared_queue", "certify_shared_queue"),
    ("objects.qlock", "check_qlock_correctness"),
    # replay folds
    ("core.replay", "ReplayFn.__call__"),
    ("objects.ticket_lock", "replay_ticket"),
    ("objects.shared_queue", "replay_shared_queue"),
    ("objects.qlock", "replay_qlock_busy"),
    # ClightX and LAsm interpreters
    ("clight.semantics", "Interp.run_function"),
    ("asm.semantics", "AsmInterp.run_function"),
    # machine rounds and DPOR bookkeeping
    ("core.machine", "enumerate_game_logs"),
    ("core.machine", "run_game"),
    ("reduce.dpor", "ReducingScheduler.pick"),
    ("reduce.fingerprint", "state_fingerprint"),
    # calculus rules, simulation checks, soundness, lint
    ("core.calculus", "module_rule"),
    ("core.calculus", "interface_sim_rule"),
    ("core.calculus", "check_compat_interfaces"),
    ("core.simulation", "check_scenarios"),
    ("core.simulation", "check_sim"),
    ("core.contextual", "check_soundness"),
    ("analysis.linter", "lint_rule_inputs"),
    # thread-safe compilation
    ("compiler.validate", "compile_and_validate"),
    # certificate cache, fingerprints and dependency slices
    ("parallel.cache", "cached_certificate"),
    ("parallel.cache", "cached_obligation"),
    ("parallel.cache", "cached_obligation_payload"),
    ("parallel.canonical", "canonical_fingerprint"),
    ("analysis.deps", "dependency_closure"),
    ("analysis.slices", "scenario_obligation_key"),
    # certificate assembly
    ("core.certificate", "Certificate.to_json"),
)

#: Spans kept for :meth:`Tracer.write`; statistics cover every call.
MAX_SPANS = 100_000

# The wrappers reach the tracer through this global, not their closure:
# the certificate cache fingerprints closure contents, and the tracer's
# span list would change every cache key on every call.
_ACTIVE: Optional["Tracer"] = None


def boundary_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname}"


class Tracer:
    """In-memory spans and per-boundary statistics for one thread."""

    def __init__(self, max_spans: int = MAX_SPANS):
        self.max_spans = max_spans
        self.spans: List[List[Any]] = []
        self.dropped = 0
        #: name -> [calls, total_s, self_s]
        self.stats: Dict[str, List[float]] = {}
        #: distinct behaviours returned by ``enumerate_game_logs``
        self.distinct_behaviours = 0
        self._stack: List[List[Any]] = []
        self._open: Dict[str, int] = {}

    def open(self, name: str) -> List[Any]:
        stack = self._stack
        parent = stack[-1][2] if stack else -1
        start = time.perf_counter()
        if len(self.spans) < self.max_spans:
            index = len(self.spans)
            self.spans.append([name, start, start, parent])
        else:
            index = -1
            self.dropped += 1
        self._open[name] = self._open.get(name, 0) + 1
        frame = [name, start, index, 0.0]
        stack.append(frame)
        return frame

    def close(self, frame: List[Any]) -> None:
        end = time.perf_counter()
        name, start, index, child = frame
        self._stack.pop()
        elapsed = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[2] += elapsed - child
        depth = self._open[name] - 1
        self._open[name] = depth
        if depth == 0:
            stat[1] += elapsed
        if self._stack:
            self._stack[-1][3] += elapsed
        if index >= 0:
            self.spans[index][2] = end

    def summary(self) -> Dict[str, Dict[str, float]]:
        """``{boundary: {calls, total_s, self_s}}`` over every boundary."""
        out = {}
        for module, qualname in BOUNDARIES:
            name = boundary_name(module, qualname)
            calls, total, own = self.stats.get(name, (0, 0.0, 0.0))
            out[name] = {"calls": int(calls), "total_s": total, "self_s": own}
        return out

    def write(self, path: str, **header: Any) -> None:
        document = dict(header)
        document.update(
            schema="perfbench.trace/v1",
            fields=["name", "start_s", "end_s", "parent"],
            spans=self.spans,
            dropped=self.dropped,
        )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


def _count_behaviours(results: Any) -> None:
    _ACTIVE.distinct_behaviours += len({result.log for result in results})


def _wrap_call(name: str, fn: Callable, on_result: Optional[Callable] = None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer = _ACTIVE
        if tracer is None:
            return fn(*args, **kwargs)
        frame = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(frame)
        if on_result is not None:
            on_result(result)
        return result

    return traced


def _wrap_generator(name: str, fn: Callable):
    """Time each resumption; forward ``send``, ``throw`` and the return."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        inner = fn(*args, **kwargs)
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            tracer = _ACTIVE
            frame = tracer.open(name) if tracer is not None else None
            try:
                if error is None:
                    item = inner.send(value)
                else:
                    item = inner.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                if frame is not None:
                    tracer.close(frame)
            value, error = None, None
            try:
                value = yield item
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as thrown:  # forwarded into the inner generator
                error = thrown

    return traced


def wrap(name: str, fn: Callable) -> Callable:
    if inspect.isgeneratorfunction(fn):
        return _wrap_generator(name, fn)
    if name == "core.machine.enumerate_game_logs":
        return _wrap_call(name, fn, _count_behaviours)
    return _wrap_call(name, fn)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every boundary and make ``tracer`` record; returns an undo.

    Besides the defining module, every loaded module that imported a
    boundary by name gets the wrapper too.
    """
    global _ACTIVE
    replaced: Dict[int, Tuple[Callable, Callable]] = {}
    patches: List[Tuple[Any, str, Any]] = []
    for module_name, qualname in BOUNDARIES:
        module = importlib.import_module("repro." + module_name)
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = vars(owner)[attr]
        wrapper = wrap(boundary_name(module_name, qualname), original)
        replaced[id(original)] = (original, wrapper)
        patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)
    for module in list(sys.modules.values()):
        for attr, value in list(vars(module).items()):
            pair = replaced.get(id(value))
            if pair is not None and pair[0] is value:
                patches.append((module, attr, value))
                setattr(module, attr, pair[1])
    _ACTIVE = tracer

    def uninstall() -> None:
        global _ACTIVE
        _ACTIVE = None
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    return uninstall
