"""repro.obs — exploration tracing, metrics, and certificate provenance.

A zero-dependency observability layer threaded through the checker
stack.  Three pieces:

- :mod:`repro.obs.trace` — hierarchical :func:`span`\\ s gathered by a
  thread-safe collector, exportable as Chrome ``trace_event`` JSON
  (open in ``chrome://tracing`` / Perfetto);
- :mod:`repro.obs.metrics` — counters, gauges and histograms (runs
  enumerated, env contexts, obligations, replay-cache hits, scheduler
  picks, per-rule wall time);
- :mod:`repro.obs.report` — per-run text/JSON reports, a JSONL event
  stream export, and a certificate-provenance pretty printer;
- :mod:`repro.obs.forensics` — structured counterexamples with a
  delta-debugging shrinker, attached to failed certificate obligations;
- :mod:`repro.obs.coverage` — exploration-coverage accounting for every
  bounded enumeration, rolled into certificate provenance and the run
  report's coverage map;
- :mod:`repro.obs.profile` — deep state-space profiling (a second
  opt-in tier): redundancy accounting over hash-consed state
  fingerprints, per-obligation wall/state attribution, pool & cache
  timelines;
- :mod:`repro.obs.flamegraph` — collapsed-stack and speedscope export
  of the span tree;
- :mod:`repro.obs.heartbeat` — live JSONL progress streaming for
  long-running derivations;
- :mod:`repro.obs.store` — the persistent run ledger: one
  content-addressed record per verification run (``repro.obs/run/v1``),
  appended automatically when ``REPRO_LEDGER`` / :func:`ledger` is set,
  with cross-run statistics (median/MAD trends, regression detection)
  and a certificate differ on top;
- :mod:`repro.obs.dashboard` — a self-contained HTML dashboard
  rendered from the ledger;
- :mod:`repro.obs.blocks` — the provenance-block registry (one
  associative merge per block, folded over the derivation tree) and the
  ambient sinks fork-pool workers ship back per task;
- :mod:`repro.obs.cli` — ``python -m repro.obs`` with ``report`` /
  ``explain`` / ``watch`` / ``history`` / ``trends`` / ``regress`` /
  ``diff`` / ``record`` / ``dashboard`` subcommands.

Off by default: instrumented hot paths pay only a flag test until
:func:`enable` (or the :func:`observing` context manager) turns
collection on, after which checkers also stamp an optional
``provenance`` field onto every :class:`~repro.core.Certificate` they
produce.

    >>> from repro import obs
    >>> with obs.observing():
    ...     stack = certify_ticket_lock([1, 2], lock="q0")
    >>> obs.write_chrome_trace("lock_trace.json")
    >>> print(obs.render_report())
    >>> stack.composed.certificate.provenance["wall_time_s"]
"""

from .trace import (
    NOOP_SPAN,
    Span,
    SpanRecord,
    TraceCollector,
    chrome_trace,
    collector,
    disable,
    enable,
    obs_enabled,
    observing,
    span,
    write_chrome_trace,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsWindow,
    REGISTRY,
    inc,
    observe,
    set_gauge,
    snapshot,
)
from .coverage import (
    COVERAGE,
    CoverageBuilder,
    CoverageRegistry,
    EXHAUSTIVE,
    SAMPLED,
    coverage_map,
    merge_coverage_maps,
    record_coverage,
)
from .forensics import (
    Counterexample,
    MAX_COUNTEREXAMPLES,
    MAX_SHRINK_PROBES,
    build_counterexample,
    divergence_index,
    event_to_dict,
    format_event,
    shrink_sequence,
)
from .report import (
    EVENTS_SCHEMA,
    ReplayCollector,
    read_jsonl,
    render_coverage_map,
    render_provenance,
    render_report,
    report_json,
    span_rollup,
    write_jsonl,
)
from .profile import (
    PROFILER,
    ProfileCollector,
    RedundancyBuilder,
    disable_profiling,
    enable_profiling,
    merge_redundancy,
    obligation_entry,
    profile_enabled,
    profile_span,
    profiler,
    profiling,
    state_fingerprint,
)
from .heartbeat import (
    HEARTBEAT_SCHEMA,
    HeartbeatWriter,
    heartbeat,
    heartbeat_writer,
    start_heartbeat,
    stop_heartbeat,
    stream_path,
)
from .store import (
    LEDGER_ENV,
    LedgerRun,
    RUN_SCHEMA,
    RunLedger,
    certificate_digest,
    certificate_fingerprint,
    detect_regressions,
    diff_certificates,
    disable_ledger,
    enable_ledger,
    ingest_bench,
    ledger,
    ledger_armed,
    run_metrics,
    series_stats,
)
from .dashboard import render_dashboard, write_dashboard
from .flamegraph import (
    collapsed_stacks,
    speedscope,
    write_collapsed,
    write_speedscope,
)

__all__ = [
    "COVERAGE",
    "CoverageBuilder",
    "CoverageRegistry",
    "EXHAUSTIVE",
    "SAMPLED",
    "coverage_map",
    "merge_coverage_maps",
    "record_coverage",
    "Counterexample",
    "MAX_COUNTEREXAMPLES",
    "MAX_SHRINK_PROBES",
    "build_counterexample",
    "divergence_index",
    "event_to_dict",
    "format_event",
    "shrink_sequence",
    "EVENTS_SCHEMA",
    "ReplayCollector",
    "read_jsonl",
    "render_coverage_map",
    "write_jsonl",
    "NOOP_SPAN",
    "Span",
    "SpanRecord",
    "TraceCollector",
    "chrome_trace",
    "collector",
    "disable",
    "enable",
    "obs_enabled",
    "observing",
    "span",
    "write_chrome_trace",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsWindow",
    "REGISTRY",
    "inc",
    "observe",
    "set_gauge",
    "snapshot",
    "render_provenance",
    "render_report",
    "report_json",
    "span_rollup",
    "PROFILER",
    "ProfileCollector",
    "RedundancyBuilder",
    "disable_profiling",
    "enable_profiling",
    "merge_redundancy",
    "obligation_entry",
    "profile_enabled",
    "profile_span",
    "profiler",
    "profiling",
    "state_fingerprint",
    "HEARTBEAT_SCHEMA",
    "HeartbeatWriter",
    "heartbeat",
    "heartbeat_writer",
    "start_heartbeat",
    "stop_heartbeat",
    "stream_path",
    "LEDGER_ENV",
    "LedgerRun",
    "RUN_SCHEMA",
    "RunLedger",
    "certificate_digest",
    "certificate_fingerprint",
    "detect_regressions",
    "diff_certificates",
    "disable_ledger",
    "enable_ledger",
    "ingest_bench",
    "ledger",
    "ledger_armed",
    "run_metrics",
    "series_stats",
    "render_dashboard",
    "write_dashboard",
    "collapsed_stacks",
    "speedscope",
    "write_collapsed",
    "write_speedscope",
]
