"""Provenance blocks and ambient sinks: the one composition protocol.

Certificates compose by the Fig. 9 rules, and so does their
provenance.  A **block** is one named section of
``Certificate.provenance`` (``coverage``, ``profile``, ``reduction``,
``incremental``) with one associative merge over ``Optional[dict]``
values; the module that owns the block registers it.  Everything that
combines blocks goes through this registry:

* a checker folds its per-obligation outputs, each carrying blocks
  under their registered names (:func:`compose_blocks`);
* a rule that checks nothing itself inherits the merge of its
  premises' blocks, so provenance is a monoid over the derivation tree
  (a block's ``inherit`` projection may keep less than its merge);
* the run ledger stores each block of its root certificates the same
  way, ``record[name] = inherit(merge(roots))`` (:func:`inherit_blocks`).

A block also describes itself to every reader: ``render`` gives its
text lines (``explain``, ``diff``, the dashboard) and ``metrics`` its
numbers for :func:`repro.obs.store.run_metrics` (``trends``,
``regress``, the dashboard's sparklines), so no reader names a block.

A **sink** is process-global observation state that fork-pool workers
must hand back to the parent: a mark taken before a task, the delta
since that mark after it, and an absorb that replays the delta in the
parent.  :mod:`repro.parallel.pool` ships one ``[(sink, delta), ...]``
list per task and replays the lists in plan order.  A sink whose
``mark`` returns ``None`` is inactive for that task and ships nothing.

A **tally** is the one scoped counter for plain counts that must be
summed over premises and workers (DPOR's cuts, obligation-cache reuse,
the run ledger's cache lookups).  :func:`tallies` opens a scope over
the names it counts, :func:`tally` adds to every open scope that counts
a name, and the ``tallies`` sink gives each worker task a scope of its
own whose counts the parent adds to its open scopes in plan order.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple,
)

Value = Optional[Dict[str, Any]]


def _whole(value: Value) -> Value:
    return value


def _no_metrics(value: Dict[str, Any]) -> Dict[str, float]:
    return {}


class Block(NamedTuple):
    name: str
    #: Associative merge of block values (``None``/empty values skipped).
    merge: Callable[[Iterable[Value]], Value]
    #: The text lines of a non-empty block value.
    render: Callable[[Dict[str, Any]], List[str]]
    #: What a composition rule keeps of its premises' merged block.
    inherit: Callable[[Value], Value] = _whole
    #: The run metrics of a non-empty block value, by metric name.
    metrics: Callable[[Dict[str, Any]], Dict[str, float]] = _no_metrics


class Sink(NamedTuple):
    name: str
    #: Taken in the worker before a task; ``None`` means inactive.
    mark: Callable[[], Any]
    #: The delta since a mark, shipped to the parent when non-empty.
    since: Callable[[Any], Any]
    #: Replays a shipped delta in the parent.
    absorb: Callable[[Any], None]


BLOCKS: Dict[str, Block] = {}
SINKS: Dict[str, Sink] = {}


def format_rows(headers: List[str], rows: List[List[str]]) -> List[str]:
    """A left-aligned text table (header, rule, rows) for renderers."""
    widths = [
        max(len(header), *(len(row[i]) for row in rows)) if rows else len(header)
        for i, header in enumerate(headers)
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return lines


def register_block(*args: Any, **kwargs: Any) -> None:
    """Declare a :class:`Block` (called by the module that owns it)."""
    block = Block(*args, **kwargs)
    BLOCKS[block.name] = block


def register_sink(*args: Any, **kwargs: Any) -> None:
    """Declare a :class:`Sink` a pool worker ships back per task."""
    sink = Sink(*args, **kwargs)
    SINKS[sink.name] = sink


def fold_blocks(outputs: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge every registered block across ``outputs``; empty merges
    are dropped."""
    outputs = list(outputs)
    folded: Dict[str, Any] = {}
    for block in BLOCKS.values():
        merged = block.merge(output.get(block.name) for output in outputs)
        if merged:
            folded[block.name] = merged
    return folded


def _inherited(block: Block, provenances: List[Dict[str, Any]]) -> Value:
    return block.inherit(block.merge(p.get(block.name) for p in provenances))


def compose_blocks(
    provenance: Dict[str, Any],
    prior: Dict[str, Any],
    children: Iterable[Dict[str, Any]],
    outputs: Iterable[Dict[str, Any]] = (),
) -> None:
    """Fill every block of ``provenance`` in place.

    Per block the first non-empty source wins: an explicit value
    already in ``provenance``, the fold of the checker's ``outputs``,
    the certificate's ``prior`` provenance (a wrapper re-stamping a
    checker's certificate), and finally the ``inherit`` projection of
    the merged ``children`` provenances.  Empty blocks are dropped.
    """
    folded = fold_blocks(outputs)
    children = list(children)
    for block in BLOCKS.values():
        name = block.name
        value = (
            provenance.get(name)
            or folded.get(name)
            or prior.get(name)
            or (children and _inherited(block, children))
        )
        if value:
            provenance[name] = value
        else:
            provenance.pop(name, None)


def inherit_blocks(provenances: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Every non-empty block as a composition rule over ``provenances``
    would inherit it (the run record's block fields)."""
    provenances = list(provenances)
    inherited = {}
    for block in BLOCKS.values():
        value = _inherited(block, provenances)
        if value:
            inherited[block.name] = value
    return inherited


def sink_marks() -> List[Tuple[Sink, Any]]:
    """Mark every active sink before a worker task runs."""
    marks = []
    for sink in SINKS.values():
        mark = sink.mark()
        if mark is not None:
            marks.append((sink, mark))
    return marks


def sink_records(marks: List[Tuple[Sink, Any]]) -> List[Tuple[str, Any]]:
    """The non-empty deltas since ``marks``, as ``(sink, delta)`` records."""
    records = []
    for sink, mark in marks:
        delta = sink.since(mark)
        if delta:
            records.append((sink.name, delta))
    return records


def absorb_records(records: Iterable[Tuple[str, Any]]) -> None:
    """Replay one task's shipped deltas into this process's sinks."""
    for name, delta in records:
        SINKS[name].absorb(delta)


# --- tallies -----------------------------------------------------------------

#: The open tally scopes by ``id``, in opening order; each maps the
#: names it counts to their running totals.
_SCOPES: Dict[int, Dict[str, Any]] = {}


@contextmanager
def tallies(*names: str) -> Iterator[Dict[str, Any]]:
    """Count ``names`` while the block runs; yields the live counts,
    each starting at 0."""
    counts = dict.fromkeys(names, 0)
    _SCOPES[id(counts)] = counts
    try:
        yield counts
    finally:
        del _SCOPES[id(counts)]


def tally(name: str, n: Any = 1) -> None:
    """Add ``n`` to ``name`` in every open scope that counts it."""
    for counts in _SCOPES.values():
        if name in counts:
            counts[name] += n


def _task_scope() -> Optional[Dict[str, Any]]:
    """A worker task's own scope over every name an open scope counts
    (``None``, inactive, while no scope is open)."""
    if not _SCOPES:
        return None
    counts = {name: 0 for scope in _SCOPES.values() for name in scope}
    _SCOPES[id(counts)] = counts
    return counts


def _task_counts(counts: Dict[str, Any]) -> Dict[str, Any]:
    del _SCOPES[id(counts)]
    return {name: n for name, n in counts.items() if n}


def _absorb_counts(delta: Dict[str, Any]) -> None:
    for name, n in delta.items():
        tally(name, n)


register_sink("tallies", _task_scope, _task_counts, _absorb_counts)
