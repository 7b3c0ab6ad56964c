"""Per-run observability reports (text and JSON).

Renders what the collector and metrics registry saw during a
verification run: a wall-time rollup per span name (where the checker
spent its time), the counter and histogram state, and — given a
certificate — its judgment tree with every provenance block rendered
by the block itself (:mod:`repro.obs.blocks`).  The JSON form is the
machine-readable companion used by benchmarks and CI.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from .blocks import BLOCKS, format_rows
from .coverage import COVERAGE, coverage_map, render_coverage_map
from .forensics import Counterexample
from .metrics import snapshot
from .trace import SpanRecord, TraceCollector, collector as _default_collector

#: Schema tag of the JSONL event-stream export (one JSON object per
#: line: a header, every span record, one metrics snapshot, and every
#: coverage record of the run).
EVENTS_SCHEMA = "repro.obs/events/v1"


def span_rollup(
    trace_collector: Optional[TraceCollector] = None,
) -> Dict[str, Dict[str, Any]]:
    """Aggregate spans by name: count, total/mean/max wall milliseconds.

    ``self_ms`` subtracts time attributed to child spans, so a parent
    that merely wraps instrumented children reports near zero — the
    quickest way to see which rule or checker actually burns the time.
    """
    trace_collector = trace_collector or _default_collector()
    spans = trace_collector.spans
    child_time: Dict[int, float] = {}
    for record in spans:
        if record.parent is not None:
            child_time[record.parent] = (
                child_time.get(record.parent, 0.0) + record.dur_us
            )
    rollup: Dict[str, Dict[str, Any]] = {}
    for record in spans:
        entry = rollup.setdefault(
            record.name,
            {"count": 0, "total_ms": 0.0, "self_ms": 0.0, "max_ms": 0.0},
        )
        dur_ms = record.dur_us / 1000.0
        entry["count"] += 1
        entry["total_ms"] += dur_ms
        entry["self_ms"] += max(
            0.0, (record.dur_us - child_time.get(record.sid, 0.0)) / 1000.0
        )
        entry["max_ms"] = max(entry["max_ms"], dur_ms)
    for entry in rollup.values():
        entry["mean_ms"] = entry["total_ms"] / entry["count"]
    return rollup


def report_json(
    trace_collector: Optional[TraceCollector] = None,
) -> Dict[str, Any]:
    """The whole observability state as one JSON-serializable dict."""
    trace_collector = trace_collector or _default_collector()
    return {
        "schema": "repro.obs/report/v1",
        "span_count": len(trace_collector),
        "spans": span_rollup(trace_collector),
        "threads": trace_collector.threads(),
        "metrics": snapshot(),
        "coverage": coverage_map(),
    }


def write_jsonl(
    path: str,
    trace_collector: Optional[TraceCollector] = None,
) -> str:
    """Export the run's event stream as JSON Lines.

    One object per line: a ``header`` (schema tag), every completed
    ``span``, one ``metrics`` snapshot, and every ``coverage`` record.
    The format is append-friendly and survives truncation — CI uploads
    it as a failure artifact next to the Chrome trace.
    """
    trace_collector = trace_collector or _default_collector()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"type": "header", "schema": EVENTS_SCHEMA}) + "\n")
        for record in trace_collector.spans:
            fh.write(
                json.dumps(
                    {
                        "type": "span",
                        "sid": record.sid,
                        "parent": record.parent,
                        "depth": record.depth,
                        "name": record.name,
                        "category": record.category,
                        "args": record.args,
                        "start_us": record.start_us,
                        "dur_us": record.dur_us,
                        "thread_index": record.thread_index,
                        "thread_name": record.thread_name,
                        "error": record.error,
                    },
                    default=repr,
                )
                + "\n"
            )
        fh.write(
            json.dumps({"type": "metrics", "data": snapshot()}, default=repr)
            + "\n"
        )
        for record in COVERAGE.records:
            fh.write(
                json.dumps({"type": "coverage", "data": record}, default=repr)
                + "\n"
            )
    return path


class ReplayCollector:
    """A read-only stand-in for :class:`TraceCollector` over loaded spans.

    Lets :func:`span_rollup` / :func:`render_report` run against an
    event stream loaded from disk (``python -m repro.obs report``)
    instead of the live process-wide collector.
    """

    def __init__(self, spans: List[SpanRecord]):
        self._spans = list(spans)

    @property
    def spans(self) -> List[SpanRecord]:
        return list(self._spans)

    def threads(self) -> Dict[int, str]:
        return {
            record.thread_index: record.thread_name for record in self._spans
        }

    def __len__(self) -> int:
        return len(self._spans)


def read_jsonl(path: str) -> Dict[str, Any]:
    """Load a JSONL event stream written by :func:`write_jsonl`.

    Returns ``{"schema", "spans" (a :class:`ReplayCollector`),
    "metrics", "coverage"}``; unknown line types are ignored so the
    format can grow.
    """
    schema = None
    spans: List[SpanRecord] = []
    metrics: Dict[str, Any] = {}
    coverage_records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            entry = json.loads(line)
            kind = entry.get("type")
            if kind == "header":
                schema = entry.get("schema")
            elif kind == "span":
                spans.append(
                    SpanRecord(
                        sid=entry.get("sid", 0),
                        parent=entry.get("parent"),
                        depth=entry.get("depth", 0),
                        name=entry.get("name", "?"),
                        category=entry.get("category", "repro"),
                        args=entry.get("args") or {},
                        start_us=entry.get("start_us", 0.0),
                        dur_us=entry.get("dur_us", 0.0),
                        thread_index=entry.get("thread_index", 0),
                        thread_name=entry.get("thread_name", "main"),
                        error=entry.get("error"),
                    )
                )
            elif kind == "metrics":
                metrics = entry.get("data") or {}
            elif kind == "coverage":
                coverage_records.append(entry.get("data") or {})
    return {
        "schema": schema,
        "spans": ReplayCollector(spans),
        "metrics": metrics,
        "coverage": coverage_records,
    }


def render_report(
    trace_collector: Optional[TraceCollector] = None,
    title: str = "repro.obs report",
    metrics: Optional[Dict[str, Any]] = None,
    coverage: Optional[Dict[str, Dict[str, Any]]] = None,
) -> str:
    """A human-readable text report of spans, metrics and coverage.

    ``metrics`` / ``coverage`` default to the live process-wide state;
    the CLI passes values loaded from a JSONL event stream instead.
    """
    trace_collector = trace_collector or _default_collector()
    rollup = span_rollup(trace_collector)
    lines = [f"=== {title} ===", ""]
    if rollup:
        rows = [
            [
                name,
                str(entry["count"]),
                f"{entry['total_ms']:.2f}",
                f"{entry['self_ms']:.2f}",
                f"{entry['mean_ms']:.3f}",
                f"{entry['max_ms']:.2f}",
            ]
            for name, entry in sorted(
                rollup.items(), key=lambda kv: -kv[1]["total_ms"]
            )
        ]
        lines.append(f"spans ({len(trace_collector)} recorded):")
        lines.extend(
            format_rows(
                ["name", "count", "total ms", "self ms", "mean ms", "max ms"],
                rows,
            )
        )
    else:
        lines.append("spans: none recorded")
    metrics = metrics if metrics is not None else snapshot()
    if metrics.get("counters"):
        lines += ["", "counters:"]
        lines.extend(
            format_rows(
                ["name", "value"],
                [[name, str(value)] for name, value in metrics["counters"].items()],
            )
        )
    if metrics.get("histograms"):
        lines += ["", "histograms:"]
        rows = []
        for name, summary in metrics["histograms"].items():
            if summary.get("count"):
                rows.append(
                    [
                        name,
                        str(summary["count"]),
                        f"{summary['mean']:.4g}",
                        f"{summary['min']:.4g}",
                        f"{summary['max']:.4g}",
                    ]
                )
            else:
                rows.append([name, "0", "-", "-", "-"])
        lines.extend(format_rows(["name", "count", "mean", "min", "max"], rows))
    coverage_lines = render_coverage_map(coverage)
    if coverage_lines:
        lines += [""] + coverage_lines
    return "\n".join(lines)


def counterexample_of(evidence: Optional[Dict[str, Any]]) -> Optional[Counterexample]:
    """The counterexample an exported obligation's evidence carries."""
    data = (evidence or {}).get("counterexample")
    if isinstance(data, dict) and data.get("schema", "").startswith(
        "repro.obs/counterexample/"
    ):
        return Counterexample.from_dict(data)
    return None


def render_certificate(cert: Dict[str, Any], indent: int = 0,
                       show_ok: bool = False) -> List[str]:
    """The text lines of an exported certificate tree (``repro.obs
    explain``): each judgment with its bounds, provenance and failed
    obligations (all with ``show_ok``), counterexamples as interleaving
    diagrams; every provenance block renders itself."""
    pad = "  " * indent
    status = "OK" if cert.get("ok") else "FAILED"
    lines = [f"{pad}[{status}] {cert.get('judgment')} ({cert.get('rule')})"]
    bounds = cert.get("bounds") or {}
    if bounds:
        lines.append(f"{pad}  bounds: {json.dumps(bounds, default=str)}")
    provenance = cert.get("provenance") or {}
    wall = provenance.get("wall_time_s")
    if wall is not None:
        lines.append(f"{pad}  wall time: {wall}s")
    metrics = provenance.get("metrics")
    if metrics:
        lines.append(f"{pad}  metric deltas: {json.dumps(metrics, default=str)}")
    for block in BLOCKS.values():
        value = provenance.get(block.name)
        if value:
            lines.extend(f"{pad}  {line}" for line in block.render(value))
    lint = provenance.get("lint")
    if lint:
        findings = lint.get("findings") or []
        errors = sum(
            1 for f in findings
            if f.get("severity") == "error" and not f.get("suppressed")
        )
        warnings = sum(
            1 for f in findings
            if f.get("severity") == "warning" and not f.get("suppressed")
        )
        lines.append(
            f"{pad}  lint: {lint.get('ruleset')} mode={lint.get('mode')} "
            f"{errors} error(s), {warnings} warning(s)"
        )
        for f in findings:
            mark = "(suppressed) " if f.get("suppressed") else ""
            lines.append(
                f"{pad}    {f.get('severity', '?').upper()} "
                f"{f.get('rule')}: {mark}{f.get('message')} "
                f"[{f.get('location')}]"
            )
    for obligation in cert.get("obligations") or []:
        ok = obligation.get("ok")
        if ok and not show_ok:
            continue
        mark = "✓" if ok else "✗"
        details = obligation.get("details") or ""
        suffix = f" — {details}" if details else ""
        lines.append(f"{pad}  {mark} {obligation.get('description')}{suffix}")
        counterexample = counterexample_of(obligation.get("evidence"))
        if counterexample is not None:
            lines.append(f"{pad}    {counterexample.digest()}")
            lines.extend(
                f"{pad}    | {line}"
                for line in counterexample.render().splitlines()
            )
    for child in cert.get("children") or []:
        lines.extend(render_certificate(child, indent + 1, show_ok=show_ok))
    return lines


def render_provenance(certificate: Any) -> str:
    """Pretty-print a certificate tree with its provenance: the
    ``explain`` rendering of ``certificate.to_json()`` (any object with
    a ``to_json``, i.e. :class:`repro.core.Certificate`, keeping this
    module free of core imports)."""
    return "\n".join(render_certificate(certificate.to_json()))
