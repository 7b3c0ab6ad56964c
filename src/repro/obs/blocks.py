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
* the run ledger merges its root certificates' blocks and lets each
  block name its record fields (:func:`ledger_fields`).

A **sink** is process-global observation state that fork-pool workers
must hand back to the parent: a mark taken before a task, the delta
since that mark after it, and an absorb that replays the delta in the
parent.  :mod:`repro.parallel.pool` ships one ``[(sink, delta), ...]``
list per task and replays the lists in plan order.  A sink whose
``mark`` returns ``None`` is inactive for that task and ships nothing.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

Value = Optional[Dict[str, Any]]


def _whole(value: Value) -> Value:
    return value


class Block(NamedTuple):
    name: str
    #: Associative merge of block values (``None``/empty values skipped).
    merge: Callable[[Iterable[Value]], Value]
    #: What a composition rule keeps of its premises' merged block.
    inherit: Callable[[Value], Value] = _whole
    #: The run-record fields of the merged root blocks (``None``: none).
    ledger: Optional[Callable[[Dict[str, Any]], Dict[str, Any]]] = None


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
            or (children and block.inherit(
                block.merge(child.get(name) for child in children)
            ))
        )
        if value:
            provenance[name] = value
        else:
            provenance.pop(name, None)


def ledger_fields(provenances: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """The run-record fields of the merged blocks of root certificates."""
    fields: Dict[str, Any] = {}
    for name, merged in fold_blocks(provenances).items():
        if BLOCKS[name].ledger is not None:
            fields.update(BLOCKS[name].ledger(merged))
    return fields


def register_stack_sink(
    name: str,
    stack: List[Any],
    fresh: Callable[[], Any],
    record: Callable[[Any], Any],
    absorb: Callable[[Any, Any], None],
) -> None:
    """A sink over a stack of ambient collectors (every tally goes to
    every open collector).  A worker task tallies into a ``fresh``
    collector pushed for its duration; the parent absorbs that
    collector's ``record`` into each collector it has open.  Inactive
    while the stack is empty."""

    def mark() -> Any:
        if not stack:
            return None
        collector = fresh()
        stack.append(collector)
        return collector

    def since(collector: Any) -> Any:
        stack.pop()  # the task left the stack as it found it
        return record(collector)

    def absorb_all(delta: Any) -> None:
        for collector in stack:
            absorb(collector, delta)

    register_sink(name, mark, since, absorb_all)


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
