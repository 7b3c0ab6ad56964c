"""``python -m repro.obs`` — render, explain, diff, and track run artifacts.

Single-run subcommands over the files the toolkit already writes:

* ``report <events.jsonl>`` — render a run's JSONL event stream
  (:func:`repro.obs.write_jsonl`) as the text report: span rollup,
  metrics, coverage map (``--json`` for the machine-readable form).
* ``explain <cert.json>`` — pretty-print an exported certificate
  (:meth:`repro.core.Certificate.to_json`): the judgment tree with
  bounds, every provenance block as the block renders itself, and every
  captured counterexample rendered as its interleaving diagram
  (``--json`` for a structured summary).
* ``watch <heartbeat.jsonl>`` — follow a live heartbeat stream
  (:mod:`repro.obs.heartbeat`) and render progress lines with explored
  counts, rates and ETA; exits when the run writes its ``end`` record.
* ``diff cert_a.json cert_b.json`` — provenance-level diff of two
  exported certificates: obligations added/removed/flipped, and both
  root values of every provenance block that differs.

Cross-run subcommands over a run ledger (:mod:`repro.obs.store`,
schema ``repro.obs/run/v1``):

* ``history --ledger DIR`` — list runs, filterable by object, rule and
  certificate fingerprint.
* ``trends --ledger DIR`` — per-metric time series with median/MAD.
* ``regress --ledger DIR`` — statistical regression gate over the last
  N runs (robust z-score on 1.4826·MAD), with the committed bench
  baselines (``--fallback-baseline``, repeatable) as the cold-start
  ratio gate.
* ``record BENCH.json --ledger DIR`` — ingest bench results as runs.
* ``compact --ledger DIR`` — apply the retention policy.
* ``dashboard --ledger DIR -o out.html`` — render the self-contained
  HTML dashboard.

Everything here reads files: the subcommands work on exported
artifacts and never run the checker.  Importing ``repro.obs.cli`` does
load the checker stack (``repro/__init__.py`` imports :mod:`repro.core`,
and with it :mod:`repro.parallel`, :mod:`repro.reduce` and
:mod:`repro.analysis`), which is also what registers every provenance
block the renderers iterate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import closing
from typing import Any, Dict, Iterator, List, Optional

from .blocks import BLOCKS, format_rows
from .coverage import CoverageRegistry
from .report import counterexample_of, read_jsonl, render_certificate, render_report
from .store import (
    RunLedger,
    certificate_digest,
    detect_regressions,
    diff_certificates,
    ingest_bench,
    run_metrics,
    series_stats,
)


def cmd_report(args: argparse.Namespace) -> int:
    """Render a JSONL event stream as the human-readable run report."""
    try:
        loaded = read_jsonl(args.events)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read event stream {args.events!r}: {err}",
              file=sys.stderr)
        return 2
    registry = CoverageRegistry()
    for record in loaded["coverage"]:
        registry.record(record)
    if args.json:
        from .report import span_rollup

        print(json.dumps(
            {
                "schema": "repro.obs/report/v1",
                "source": args.events,
                "span_count": len(loaded["spans"].spans),
                "spans": span_rollup(loaded["spans"]),
                "metrics": loaded["metrics"] or {},
                "coverage": registry.coverage_map(),
            },
            indent=2,
            ensure_ascii=False,
        ))
        return 0
    print(
        render_report(
            loaded["spans"],
            title=f"repro.obs report — {args.events}",
            metrics=loaded["metrics"] or {},
            coverage=registry.coverage_map(),
        )
    )
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """Pretty-print an exported certificate tree."""
    try:
        with open(args.certificate, "r", encoding="utf-8") as fh:
            cert = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read certificate {args.certificate!r}: {err}",
              file=sys.stderr)
        return 2
    if cert.get("schema") != "repro.cert/v1":
        print(
            f"error: {args.certificate!r} is not a repro.cert/v1 export "
            f"(schema={cert.get('schema')!r})",
            file=sys.stderr,
        )
        return 2
    if args.json:
        print(json.dumps(
            {
                "schema": "repro.obs/explain/v1",
                "source": args.certificate,
                "ok": cert.get("ok"),
                "digest": certificate_digest(cert),
                "counterexamples": _count_counterexamples(cert),
                "certificate": _explain_json(cert, show_ok=args.all),
            },
            indent=2,
            ensure_ascii=False,
        ))
        return 0
    lines = render_certificate(cert, show_ok=args.all)
    counterexamples = _count_counterexamples(cert)
    lines.append("")
    lines.append(
        f"certificate: {'OK' if cert.get('ok') else 'FAILED'}; "
        f"{counterexamples} counterexample(s) attached"
    )
    print("\n".join(lines))
    return 0


def _explain_json(cert: Dict[str, Any], show_ok: bool = False) -> Dict[str, Any]:
    """The structured form of the ``explain`` rendering for one node."""
    obligations = []
    for obligation in cert.get("obligations") or []:
        if obligation.get("ok") and not show_ok:
            continue
        entry = {
            "description": obligation.get("description"),
            "ok": obligation.get("ok"),
        }
        if obligation.get("details"):
            entry["details"] = obligation["details"]
        counterexample = counterexample_of(obligation.get("evidence"))
        if counterexample is not None:
            entry["counterexample"] = counterexample.digest()
        obligations.append(entry)
    out: Dict[str, Any] = {
        "judgment": cert.get("judgment"),
        "rule": cert.get("rule"),
        "ok": cert.get("ok"),
        "obligations": obligations,
    }
    if cert.get("bounds"):
        out["bounds"] = cert["bounds"]
    if cert.get("provenance"):
        out["provenance"] = cert["provenance"]
    out["children"] = [
        _explain_json(child, show_ok=show_ok)
        for child in cert.get("children") or []
    ]
    return out


def _count_counterexamples(cert: Dict[str, Any]) -> int:
    count = sum(
        1
        for o in cert.get("obligations") or []
        if counterexample_of(o.get("evidence")) is not None
    )
    return count + sum(
        _count_counterexamples(child) for child in cert.get("children") or []
    )


def _render_heartbeat_line(record: Dict[str, Any]) -> Optional[str]:
    """One display line per heartbeat record; ``None`` for unknown types.

    Unknown record types are skipped silently — the wire format is
    shared with future producers (``repro.serve``) and the convention
    (as with the events file) is that consumers ignore what they do not
    know.
    """
    kind = record.get("type")
    if kind == "start":
        return f"-- stream started (pid {record.get('pid', '?')})"
    if kind == "end":
        return (
            f"-- finished: {record.get('status', '?')} "
            f"after {record.get('t_s', 0.0):.1f}s"
        )
    if kind != "heartbeat":
        return None
    parts = [f"[{record.get('t_s', 0.0):8.1f}s]", str(record.get("phase", "?"))]
    explored = record.get("explored")
    if explored is not None:
        budget = record.get("budget")
        parts.append(
            f"{explored}/{budget}" if budget is not None else str(explored)
        )
    rate = record.get("rate_per_s")
    if rate is not None:
        parts.append(f"{rate}/s")
    eta = record.get("eta_s")
    if eta is not None:
        parts.append(f"eta {eta}s")
    pid = record.get("pid")
    if pid is not None:
        parts.append(f"(pid {pid})")
    return "  ".join(parts)


class _WatchStop(Exception):
    """A stream source that cannot go on: ``(exit code, message)``."""


_TIMED_OUT = "watch: timed out waiting for heartbeats"


def _file_lines(args: argparse.Namespace) -> Iterator[str]:
    """Complete lines of a stream file as they are appended.

    Follows by default, waiting for the file to appear if the run has
    not started yet; ``--no-follow`` ends at the current end of file.
    """
    deadline = (
        time.monotonic() + args.timeout if args.timeout is not None else None
    )

    def wait(code: int, message: str) -> None:
        if deadline is not None and time.monotonic() >= deadline:
            raise _WatchStop(code, message)
        time.sleep(args.interval)

    while not args.no_follow and not os.path.exists(args.stream):
        wait(2, f"error: heartbeat stream {args.stream!r} did not appear")
    try:
        handle = open(args.stream, "r", encoding="utf-8")
    except OSError as err:
        raise _WatchStop(
            2, f"error: cannot read heartbeat stream {args.stream!r}: {err}"
        ) from None
    with handle:
        buffered = ""
        while True:
            chunk = handle.readline()
            if not chunk:
                if args.no_follow:
                    return
                wait(3, _TIMED_OUT)
                continue
            buffered += chunk
            if buffered.endswith("\n"):  # else a producer is mid-append
                yield buffered
                buffered = ""


def _url_lines(args: argparse.Namespace) -> Iterator[bytes]:
    """Complete lines of a ``repro.serve`` job's event stream over HTTP.

    The daemon closes the stream once the job is terminal (or at once
    with ``--no-follow``), which ends the lines.
    """
    from urllib.error import URLError
    from urllib.parse import urlsplit
    from urllib.request import urlopen

    url = args.url
    if args.no_follow:
        url += ("&" if urlsplit(url).query else "?") + "follow=0"
    try:
        response = urlopen(url, timeout=args.timeout)
    except (URLError, OSError, ValueError) as err:
        raise _WatchStop(2, f"error: cannot watch {args.url!r}: {err}") from None
    with response:
        while True:
            try:
                line = response.readline()
            except TimeoutError:
                raise _WatchStop(3, _TIMED_OUT) from None
            if not line.endswith(b"\n"):
                return
            yield line


def cmd_watch(args: argparse.Namespace) -> int:
    """Follow a heartbeat stream and render progress lines.

    The stream is a ``repro.obs/heartbeat/v1`` file or, with ``--url``,
    a ``repro.serve`` job's event stream; both read the same way.  Follows
    by default (like ``tail -f``) until the ``end`` record; ``--no-follow``
    renders what the stream holds now.  Torn or foreign lines are skipped.
    A stream that ends with no record is a usage error (exit 2), like a
    missing file: the run asked about never wrote anything.
    """
    if (args.stream is None) == (args.url is None):
        print("error: watch needs a stream path or --url (not both)",
              file=sys.stderr)
        return 2
    name = args.stream if args.url is None else args.url
    lines = _file_lines(args) if args.url is None else _url_lines(args)
    records_seen = 0
    try:
        with closing(lines):
            for line in lines:
                try:
                    record = json.loads(line)
                except ValueError:
                    continue  # torn or foreign line: skip, keep following
                if not isinstance(record, dict):
                    continue
                records_seen += 1
                rendered = _render_heartbeat_line(record)
                if rendered is not None:
                    print(rendered, flush=True)
                if record.get("type") == "end":
                    return 0
    except _WatchStop as stop:
        code, message = stop.args
        print(message, file=sys.stderr)
        return code
    if records_seen == 0:
        print(f"error: heartbeat stream {name!r} is empty (no records)",
              file=sys.stderr)
        return 2
    return 0


def _load_bench(path: str) -> Dict[str, Dict[str, Any]]:
    """Load one ``repro.bench/v1`` file as a nodeid → record map.

    Raises ``ValueError`` with a one-line, path-prefixed diagnostic for
    every malformation (invalid JSON, wrong top-level type, wrong
    schema, non-list ``tests``, non-dict entries, entries without a
    ``nodeid``), so ``regress`` can turn any bad baseline into a clean
    usage error instead of a traceback.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path!r} is not valid JSON: {err}") from None
    if not isinstance(payload, dict):
        raise ValueError(
            f"{path!r} is not a repro.bench/v1 result file "
            f"(top-level JSON is {type(payload).__name__}, expected object)"
        )
    if payload.get("schema") != "repro.bench/v1":
        raise ValueError(
            f"{path!r} is not a repro.bench/v1 result file "
            f"(schema={payload.get('schema')!r})"
        )
    tests = payload.get("tests", [])
    if not isinstance(tests, list):
        raise ValueError(
            f"{path!r} is malformed: 'tests' is "
            f"{type(tests).__name__}, expected a list"
        )
    out: Dict[str, Dict[str, Any]] = {}
    for index, entry in enumerate(tests):
        if not isinstance(entry, dict) or "nodeid" not in entry:
            raise ValueError(
                f"{path!r} is malformed: tests[{index}] has no 'nodeid'"
            )
        out[entry["nodeid"]] = entry
    return out


def _fmt_seconds(duration: Optional[float]) -> str:
    return f"{duration:.3f}s" if duration is not None else "-"


# ---------------------------------------------------------------------------
# Ledger subcommands (cross-run: history / trends / regress / record /
# compact / dashboard) and the certificate differ
# ---------------------------------------------------------------------------

def _print_table(headers: List[str], rows: List[List[str]]) -> None:
    print("\n".join(format_rows(headers, rows)))


def _open_ledger(args: argparse.Namespace) -> Optional[RunLedger]:
    if not os.path.isdir(args.ledger):
        print(f"error: ledger directory {args.ledger!r} does not exist",
              file=sys.stderr)
        return None
    try:
        return RunLedger(args.ledger)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return None


def _fmt_ts(ts: Optional[float]) -> str:
    if not ts:
        return "-"
    return time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime(ts))


_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def _ascii_spark(values: List[float]) -> str:
    if len(values) < 2:
        return ""
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    return "".join(
        _SPARK_BLOCKS[
            min(len(_SPARK_BLOCKS) - 1,
                int((value - lo) / span * (len(_SPARK_BLOCKS) - 1)))
        ]
        for value in values
    )


def cmd_history(args: argparse.Namespace) -> int:
    """List ledger runs, filterable by object / rule / fingerprint."""
    ledger = _open_ledger(args)
    if ledger is None:
        return 2
    runs = ledger.runs(
        object=args.object,
        rule=args.rule,
        fingerprint=args.fingerprint,
        last=args.last,
    )
    if args.json:
        print(json.dumps(
            {"schema": "repro.obs/history/v1", "ledger": args.ledger,
             "runs": runs},
            indent=2, ensure_ascii=False,
        ))
        return 0
    rows = []
    for record in runs:
        cache = record.get("cache") or {}
        lookups = (cache.get("hits") or 0) + (cache.get("misses") or 0)
        obligations = (record.get("obligations") or {}).get("total")
        rows.append([
            _fmt_ts(record.get("ts")),
            str(record.get("object") or "?"),
            "ok" if record.get("ok") else "FAIL",
            _fmt_seconds(record.get("wall_s")),
            str(obligations) if obligations is not None else "-",
            f"{cache.get('hits', 0)}/{lookups}" if lookups else "-",
            str((record.get("env") or {}).get("jobs") or "-"),
            (record.get("digest") or "")[:12],
        ])
    _print_table(
        ["when (UTC)", "object", "status", "wall", "obl", "cache h/l",
         "jobs", "record"],
        rows,
    )
    print(f"history: {len(rows)} run(s) on {args.ledger}")
    return 0


def cmd_trends(args: argparse.Namespace) -> int:
    """Per-metric median/MAD time series over the ledger."""
    ledger = _open_ledger(args)
    if ledger is None:
        return 2
    runs = ledger.runs(object=args.object, last=args.last)
    if not runs:
        print(f"error: no matching runs on ledger {args.ledger!r}",
              file=sys.stderr)
        return 2
    names = args.metric or sorted(
        {name for record in runs for name in run_metrics(record)}
    )
    series: Dict[str, List[float]] = {}
    for name in names:
        values = [
            metrics[name]
            for record in runs
            if (metrics := run_metrics(record)).get(name) is not None
        ]
        if values:
            series[name] = values
    if args.json:
        print(json.dumps(
            {
                "schema": "repro.obs/trends/v1",
                "ledger": args.ledger,
                "object": args.object,
                "runs": len(runs),
                "metrics": {
                    name: dict(series_stats(values), values=values)
                    for name, values in series.items()
                },
            },
            indent=2, ensure_ascii=False,
        ))
        return 0
    rows = []
    for name, values in series.items():
        stats = series_stats(values)
        rows.append([
            name,
            str(stats["n"]),
            f"{stats['median']:.4g}",
            f"{stats['mad']:.4g}",
            f"{stats['min']:.4g}",
            f"{stats['max']:.4g}",
            f"{stats['latest']:.4g}",
            _ascii_spark(values),
        ])
    _print_table(
        ["metric", "n", "median", "MAD", "min", "max", "latest", "trend"],
        rows,
    )
    return 0


def _fallback_compare(
    record: Dict[str, Any],
    baseline: Dict[str, Dict[str, Any]],
    warn: float,
    fail: float,
    min_seconds: float,
) -> Dict[str, Any]:
    """Cold-start gate: the newest run against the committed baselines.

    The statistical gate needs history; on a fresh ledger (first CI run,
    evicted cache) the candidate's per-test times are ratio-compared
    against the committed ``repro.bench/v1`` baselines (merged by
    nodeid) instead, and a test the candidate did not pass fails.
    """
    metrics = run_metrics(record)
    outcomes = (record.get("bench") or {}).get("tests") or {}
    findings = []
    for nodeid in sorted(baseline):
        base_s = baseline[nodeid].get("duration_s") or 0.0
        candidate = metrics.get(nodeid)
        if candidate is None:
            continue
        outcome = (outcomes.get(nodeid) or {}).get("outcome", "passed")
        if outcome != "passed":
            findings.append({"metric": nodeid, "outcome": outcome,
                             "verdict": "fail"})
            continue
        if base_s < min_seconds:
            continue
        ratio = candidate / base_s if base_s else float("inf")
        verdict = "fail" if ratio >= fail else "warn" if ratio >= warn else "ok"
        findings.append({
            "metric": nodeid,
            "candidate": round(candidate, 6),
            "median": round(base_s, 6),
            "ratio": round(ratio, 3),
            "verdict": verdict,
        })
    verdicts = {finding["verdict"] for finding in findings}
    status = "fail" if "fail" in verdicts else "warn" if "warn" in verdicts else "ok"
    return {"status": status, "mode": "fallback-baseline", "findings": findings}


def cmd_regress(args: argparse.Namespace) -> int:
    """Statistical regression gate over the last N ledger runs.

    The candidate (newest run per object) is judged against the median
    and MAD of its own history, so the gate adapts to each metric's real
    noise floor.  ``--fallback-baseline`` (repeatable) keeps a 1.5×/2×
    committed-baseline ratio gate for cold-start ledgers with too little
    history; the baselines are read up front, so a bad one is a usage
    error (exit 2) even when the ledger never needs it.
    """
    ledger = _open_ledger(args)
    if ledger is None:
        return 2
    baseline: Dict[str, Dict[str, Any]] = {}
    for path in args.fallback_baseline:
        try:
            baseline.update(_load_bench(path))
        except OSError as err:
            print(f"error: cannot read fallback baseline {path!r}: {err}",
                  file=sys.stderr)
            return 2
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
    objects = [args.object] if args.object else ledger.objects()
    if not objects:
        print(f"error: no runs on ledger {args.ledger!r}", file=sys.stderr)
        return 2
    results: Dict[str, Dict[str, Any]] = {}
    overall = "ok"
    for name in objects:
        runs = ledger.runs(object=name, last=args.last)
        if not runs:
            print(f"error: no runs for object {name!r} on {args.ledger!r}",
                  file=sys.stderr)
            return 2
        result = detect_regressions(
            runs,
            metrics=args.metric or None,
            warn_z=args.warn_z,
            fail_z=args.fail_z,
            warn_ratio=args.warn_ratio,
            fail_ratio=args.fail_ratio,
            min_history=args.min_history,
            min_seconds=args.min_seconds,
        )
        if result["status"] == "insufficient-history" and baseline:
            result = _fallback_compare(
                runs[-1], baseline,
                warn=args.fallback_warn, fail=args.fallback_fail,
                min_seconds=args.min_seconds,
            )
        results[name] = result
        if result["status"] == "fail":
            overall = "fail"
        elif result["status"] == "warn" and overall == "ok":
            overall = "warn"
    if args.json:
        print(json.dumps(
            {"schema": "repro.obs/regress/v1", "ledger": args.ledger,
             "status": overall, "objects": results},
            indent=2, ensure_ascii=False,
        ))
        return 1 if overall == "fail" else 0
    for name, result in results.items():
        mode = result.get("mode", "ledger")
        if result["status"] == "insufficient-history":
            print(
                f"{name}: insufficient history "
                f"({result['runs']} run(s), need "
                f"{result['min_history'] + 1}) — not gated"
            )
            continue
        print(f"{name} [{mode}]: {result['status']}")
        for finding in result["findings"]:
            verdict = finding.get("verdict", "?")
            if verdict in ("ok",) and not args.verbose:
                continue
            z = finding.get("z")
            z_txt = f" z={z:+.1f}" if z is not None else ""
            ratio = finding.get("ratio")
            ratio_txt = f" {ratio:.2f}x" if ratio is not None else ""
            outcome = finding.get("outcome")
            detail = (
                f"candidate outcome {outcome!r}" if outcome else
                f"candidate {finding.get('candidate', '-')} vs median "
                f"{finding.get('median', '-')}{ratio_txt}{z_txt}"
            )
            print(f"  {verdict.upper():5s} {finding['metric']}: {detail}")
    if overall == "fail":
        print("regress: FAIL — candidate is significantly slower than "
              "its ledger history")
        return 1
    print(f"regress: {overall} over {len(results)} object(s)")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    """Provenance-level diff of two exported certificates."""
    certs = []
    for path in (args.cert_a, args.cert_b):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                cert = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            print(f"error: cannot read certificate {path!r}: {err}",
                  file=sys.stderr)
            return 2
        if not isinstance(cert, dict) or cert.get("schema") != "repro.cert/v1":
            schema = cert.get("schema") if isinstance(cert, dict) else None
            print(
                f"error: {path!r} is not a repro.cert/v1 export "
                f"(schema={schema!r})",
                file=sys.stderr,
            )
            return 2
        certs.append(cert)
    diff = diff_certificates(certs[0], certs[1])
    if args.json:
        print(json.dumps(diff, indent=2, ensure_ascii=False))
        return 0
    a, b = diff["a"], diff["b"]
    print(f"a: {a['judgment']} ({a['rule']}) "
          f"{'OK' if a['ok'] else 'FAILED'} digest {a['digest'][:12]}")
    print(f"b: {b['judgment']} ({b['rule']}) "
          f"{'OK' if b['ok'] else 'FAILED'} digest {b['digest'][:12]}")
    if diff["identical"]:
        print("certificates are identical (modulo provenance)")
    obligations = diff["obligations"]
    for label in ("added", "removed", "flipped"):
        for key in obligations[label]:
            print(f"  {label}: {key}")
    if not any(obligations.values()):
        print("  obligations: no differences")
    for name, values in diff["blocks"].items():
        for side in ("a", "b"):
            value = values[side]
            print(f"  {name} ({side}):")
            for line in BLOCKS[name].render(value) if value else ["(none)"]:
                print(f"    {line}")
    wall = diff.get("wall_s")
    if wall:
        print(f"  wall time: {wall['a']} -> {wall['b']}")
    return 0


def cmd_record(args: argparse.Namespace) -> int:
    """Ingest ``repro.bench/v1`` result files as ledger run records."""
    os.makedirs(args.ledger, exist_ok=True)
    for path in args.bench:
        try:
            digest = ingest_bench(args.ledger, path, object=args.object)
        except (OSError, json.JSONDecodeError, ValueError) as err:
            print(f"error: cannot ingest {path!r}: {err}", file=sys.stderr)
            return 2
        if digest is None:
            print(f"error: cannot write {path!r} to the ledger",
                  file=sys.stderr)
            return 2
        print(f"record: {path} -> {digest[:12]}")
    return 0


def cmd_compact(args: argparse.Namespace) -> int:
    """Apply the retention policy: keep-last per object, max age."""
    ledger = _open_ledger(args)
    if ledger is None:
        return 2
    kept = ledger.compact(
        keep_last=args.keep_last,
        max_age_s=args.max_age_days * 86400 if args.max_age_days else None,
    )
    print(f"compact: {kept} run(s) retained on {args.ledger}")
    return 0


def cmd_dashboard(args: argparse.Namespace) -> int:
    """Render the ledger as one self-contained HTML dashboard."""
    from .dashboard import write_dashboard

    ledger = _open_ledger(args)
    if ledger is None:
        return 2
    runs = ledger.runs(object=args.object, last=args.last)
    write_dashboard(
        runs, args.output, title=args.title, source=args.ledger
    )
    print(f"dashboard: {len(runs)} run(s) -> {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description=__doc__.splitlines()[0],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser(
        "report", help="render a JSONL event stream as a text report"
    )
    p_report.add_argument("events", help="path to events.jsonl")
    p_report.add_argument(
        "--json", action="store_true",
        help="emit the report as machine-readable JSON (repro.obs/report/v1)",
    )
    p_report.set_defaults(func=cmd_report)

    p_explain = sub.add_parser(
        "explain", help="pretty-print an exported certificate (cert.json)"
    )
    p_explain.add_argument("certificate", help="path to a repro.cert/v1 JSON file")
    p_explain.add_argument(
        "--all", action="store_true",
        help="also list passed obligations (default: failures only)",
    )
    p_explain.add_argument(
        "--json", action="store_true",
        help="emit a structured summary (repro.obs/explain/v1) instead of text",
    )
    p_explain.set_defaults(func=cmd_explain)

    p_watch = sub.add_parser(
        "watch", help="follow a live heartbeat stream (file or serve URL)"
    )
    p_watch.add_argument(
        "stream", nargs="?", default=None,
        help="path to a repro.obs/heartbeat/v1 JSONL stream",
    )
    p_watch.add_argument(
        "--url", default=None,
        help="watch a repro.serve job stream instead of a file "
             "(http://host:port/jobs/<id>/events)",
    )
    p_watch.add_argument(
        "--no-follow", action="store_true",
        help="render the current stream contents and exit",
    )
    p_watch.add_argument(
        "--interval", type=float, default=0.2,
        help="poll interval while following, in seconds (default 0.2)",
    )
    p_watch.add_argument(
        "--timeout", type=float, default=None,
        help="give up following after this many seconds (default: never)",
    )
    p_watch.set_defaults(func=cmd_watch)

    def add_ledger_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--ledger", required=True,
            help="path to a run-ledger directory (repro.obs/run/v1)",
        )

    p_history = sub.add_parser(
        "history", help="list the runs recorded on a ledger"
    )
    add_ledger_arg(p_history)
    p_history.add_argument("--object", help="only runs of this object label")
    p_history.add_argument("--rule", help="only runs that applied this rule")
    p_history.add_argument(
        "--fingerprint",
        help="only runs whose root certificate fingerprint/digest starts here",
    )
    p_history.add_argument(
        "--last", type=int, default=None, help="only the newest N runs"
    )
    p_history.add_argument(
        "--json", action="store_true",
        help="emit runs as machine-readable JSON (repro.obs/history/v1)",
    )
    p_history.set_defaults(func=cmd_history)

    p_trends = sub.add_parser(
        "trends", help="per-metric median/MAD time series over a ledger"
    )
    add_ledger_arg(p_trends)
    p_trends.add_argument("--object", help="only runs of this object label")
    p_trends.add_argument(
        "--metric", action="append",
        help="metric name(s) to include (default: all observed)",
    )
    p_trends.add_argument(
        "--last", type=int, default=None, help="only the newest N runs"
    )
    p_trends.add_argument(
        "--json", action="store_true",
        help="emit the series as machine-readable JSON (repro.obs/trends/v1)",
    )
    p_trends.set_defaults(func=cmd_trends)

    p_regress = sub.add_parser(
        "regress",
        help="statistical regression gate over the last N ledger runs",
    )
    add_ledger_arg(p_regress)
    p_regress.add_argument("--object", help="gate only this object label")
    p_regress.add_argument(
        "--metric", action="append",
        help="metric name(s) to gate (default: wall times)",
    )
    p_regress.add_argument(
        "--last", type=int, default=10,
        help="history window: newest N runs per object (default 10)",
    )
    p_regress.add_argument(
        "--min-history", type=int, default=4,
        help="baseline runs required before gating statistically (default 4)",
    )
    p_regress.add_argument(
        "--warn-z", type=float, default=4.0,
        help="warn at this robust z-score (default 4.0)",
    )
    p_regress.add_argument(
        "--fail-z", type=float, default=6.0,
        help="fail at this robust z-score (default 6.0)",
    )
    p_regress.add_argument(
        "--warn-ratio", type=float, default=1.10,
        help="warnings also need this candidate/median ratio (default 1.10)",
    )
    p_regress.add_argument(
        "--fail-ratio", type=float, default=1.25,
        help="failures also need this candidate/median ratio (default 1.25)",
    )
    p_regress.add_argument(
        "--min-seconds", type=float, default=0.05,
        help="never gate metrics with a median below this (default 0.05)",
    )
    p_regress.add_argument(
        "--fallback-baseline", action="append", default=[],
        help="repro.bench/v1 file to ratio-compare against when the ledger "
             "has too little history (cold start); repeatable, merged by "
             "test nodeid",
    )
    p_regress.add_argument(
        "--fallback-warn", type=float, default=1.5,
        help="fallback-mode warn ratio (default 1.5)",
    )
    p_regress.add_argument(
        "--fallback-fail", type=float, default=2.0,
        help="fallback-mode fail ratio (default 2.0)",
    )
    p_regress.add_argument(
        "--verbose", action="store_true", help="also print passing metrics"
    )
    p_regress.add_argument(
        "--json", action="store_true",
        help="emit findings as machine-readable JSON (repro.obs/regress/v1)",
    )
    p_regress.set_defaults(func=cmd_regress)

    p_diff = sub.add_parser(
        "diff", help="provenance-level diff of two exported certificates"
    )
    p_diff.add_argument("cert_a", help="old repro.cert/v1 JSON file")
    p_diff.add_argument("cert_b", help="new repro.cert/v1 JSON file")
    p_diff.add_argument(
        "--json", action="store_true",
        help="emit the diff as machine-readable JSON (repro.obs/certdiff/v2)",
    )
    p_diff.set_defaults(func=cmd_diff)

    p_record = sub.add_parser(
        "record", help="ingest repro.bench/v1 results as ledger runs"
    )
    p_record.add_argument(
        "bench", nargs="+", help="BENCH_*.json file(s) to ingest"
    )
    add_ledger_arg(p_record)
    p_record.add_argument(
        "--object", help="override the run object label (default: bench name)"
    )
    p_record.set_defaults(func=cmd_record)

    p_compact = sub.add_parser(
        "compact", help="apply the ledger retention policy"
    )
    add_ledger_arg(p_compact)
    p_compact.add_argument(
        "--keep-last", type=int, default=None,
        help="keep only the newest N runs per object",
    )
    p_compact.add_argument(
        "--max-age-days", type=float, default=None,
        help="drop runs older than this many days",
    )
    p_compact.set_defaults(func=cmd_compact)

    p_dash = sub.add_parser(
        "dashboard", help="render a ledger as one self-contained HTML file"
    )
    add_ledger_arg(p_dash)
    p_dash.add_argument(
        "-o", "--output", default="dashboard.html",
        help="output HTML path (default dashboard.html)",
    )
    p_dash.add_argument("--object", help="only runs of this object label")
    p_dash.add_argument(
        "--last", type=int, default=None, help="only the newest N runs"
    )
    p_dash.add_argument(
        "--title", default="repro verification runs",
        help="page title",
    )
    p_dash.set_defaults(func=cmd_dashboard)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout went away (``... | head``): exit quietly, like tail/cat.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
