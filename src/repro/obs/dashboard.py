"""Self-contained HTML dashboard over a run ledger.

:func:`render_dashboard` turns the run records of a
:class:`~repro.obs.store.RunLedger` into **one** HTML file with zero
external resources — inline CSS, inline SVG, no scripts — so CI can
upload it as an artifact and anyone can open it from disk.

Panels: a KPI row (latest status, wall time vs median, cache
efficacy), one section per run object with a wall-time sparkline and
its recent-run table, a cache-efficacy panel, one panel per provenance
block generated from the block registry (a sparkline per metric the
block reports, then the block's own lines for its latest value), the
latest profiler rollup, and links to per-run artifacts (heartbeat
streams, flamegraphs) when the records carry paths.

Styling follows the repo's dataviz conventions: light and dark themes
via CSS custom properties (``prefers-color-scheme`` plus a
``data-theme`` override), series color used only on marks (text always
wears ink tokens), 2px sparkline strokes with an emphasized last point,
status colors paired with a textual badge so color never carries
meaning alone, and tabular numerals in table columns.
"""

from __future__ import annotations

import html
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .blocks import BLOCKS, Block
from .profile import render_run_summary
from .store import median, run_metrics, series_stats

# Palette (validated categorical slot 1 + chrome tokens, light/dark).
_CSS = """
:root {
  color-scheme: light;
  --page: #f9f9f7; --surface-1: #fcfcfb;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --text-muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7; --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --seq-200: #9ec5f4; --seq-450: #2a78d6;
  --status-good: #0ca30c; --status-critical: #d03b3b;
  --delta-good: #006300;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) {
    color-scheme: dark;
    --page: #0d0d0d; --surface-1: #1a1a19;
    --text-primary: #ffffff; --text-secondary: #c3c2b7; --text-muted: #898781;
    --grid: #2c2c2a; --axis: #383835; --border: rgba(255,255,255,0.10);
    --series-1: #3987e5; --seq-200: #184f95; --seq-450: #3987e5;
    --status-good: #0ca30c; --status-critical: #d03b3b;
    --delta-good: #0ca30c;
  }
}
:root[data-theme="dark"] {
  color-scheme: dark;
  --page: #0d0d0d; --surface-1: #1a1a19;
  --text-primary: #ffffff; --text-secondary: #c3c2b7; --text-muted: #898781;
  --grid: #2c2c2a; --axis: #383835; --border: rgba(255,255,255,0.10);
  --series-1: #3987e5; --seq-200: #184f95; --seq-450: #3987e5;
  --status-good: #0ca30c; --status-critical: #d03b3b;
  --delta-good: #0ca30c;
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px; background: var(--page);
  color: var(--text-primary);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 10px; }
.subtitle { color: var(--text-secondary); margin: 0 0 20px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.tile {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 16px; min-width: 150px;
}
.tile .label { color: var(--text-secondary); font-size: 12px; }
.tile .value { font-size: 24px; margin-top: 2px; }
.tile .note { color: var(--text-muted); font-size: 12px; margin-top: 2px; }
.tile .delta-good { color: var(--delta-good); font-size: 12px; }
.tile .delta-bad { color: var(--status-critical); font-size: 12px; }
.panel {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 14px 16px; margin-bottom: 16px;
}
table { border-collapse: collapse; width: 100%; }
th, td {
  text-align: left; padding: 5px 10px 5px 0;
  border-bottom: 1px solid var(--grid); vertical-align: top;
}
th { color: var(--text-secondary); font-weight: 600; font-size: 12px; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
td.mono { font-family: ui-monospace, monospace; font-size: 12px;
          color: var(--text-secondary); }
.badge { font-size: 12px; white-space: nowrap; }
.badge.ok { color: var(--status-good); }
.badge.fail { color: var(--status-critical); }
.sparkline { display: block; }
.spark-caption { color: var(--text-muted); font-size: 12px; }
pre { margin: 8px 0 0; font: 12px/1.45 ui-monospace, monospace;
      overflow-x: auto; }
a { color: var(--series-1); }
.footer { color: var(--text-muted); font-size: 12px; margin-top: 24px; }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _fmt_s(value: Optional[float]) -> str:
    if value is None:
        return "—"
    if value >= 100:
        return f"{value:.0f} s"
    if value >= 1:
        return f"{value:.2f} s"
    return f"{value * 1000:.1f} ms"


def _fmt_ts(ts: Optional[float]) -> str:
    if not ts:
        return "—"
    return time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime(ts)) + "Z"


def _badge(ok: Any) -> str:
    if ok:
        return '<span class="badge ok">✓ ok</span>'
    return '<span class="badge fail">✗ fail</span>'


def sparkline_svg(
    values: Sequence[float],
    width: int = 220,
    height: int = 44,
    title: str = "",
) -> str:
    """An inline-SVG sparkline: 2px series line, hairline median rule,
    an emphasized final point with a surface ring.  Returns ``""`` for
    fewer than two points (a one-point trend is not a trend).
    """
    if len(values) < 2:
        return ""
    pad = 6
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    inner_w, inner_h = width - 2 * pad, height - 2 * pad

    def xy(index: int, value: float) -> Tuple[float, float]:
        x = pad + inner_w * (index / (len(values) - 1))
        y = pad + inner_h * (1.0 - (value - lo) / span)
        return round(x, 1), round(y, 1)

    points = [xy(i, v) for i, v in enumerate(values)]
    path = " ".join(f"{x},{y}" for x, y in points)
    med_y = xy(0, median(list(values)))[1]
    last_x, last_y = points[-1]
    label = _esc(title) if title else "trend"
    return (
        f'<svg class="sparkline" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img" aria-label="{label}">'
        f"<title>{label}</title>"
        f'<line x1="{pad}" y1="{med_y}" x2="{width - pad}" y2="{med_y}" '
        f'stroke="var(--grid)" stroke-width="1"/>'
        f'<polyline points="{path}" fill="none" stroke="var(--series-1)" '
        f'stroke-width="2" stroke-linejoin="round" stroke-linecap="round"/>'
        f'<circle cx="{last_x}" cy="{last_y}" r="4" fill="var(--series-1)" '
        f'stroke="var(--surface-1)" stroke-width="2"/>'
        "</svg>"
    )


def _tile(label: str, value: str, note: str = "", delta: str = "") -> str:
    parts = [f'<div class="label">{_esc(label)}</div>',
             f'<div class="value">{value}</div>']
    if delta:
        parts.append(delta)
    if note:
        parts.append(f'<div class="note">{_esc(note)}</div>')
    return f'<div class="tile">{"".join(parts)}</div>'


def _kpi_row(runs: List[Dict[str, Any]]) -> str:
    latest = runs[-1]
    walls = [r["wall_s"] for r in runs if isinstance(r.get("wall_s"), (int, float))]
    med = median(walls) if walls else None
    tiles = [_tile("Latest run", _badge(latest.get("ok")),
                   note=_fmt_ts(latest.get("ts")))]
    wall = latest.get("wall_s")
    if isinstance(wall, (int, float)) and med:
        ratio = wall / med if med else 0.0
        if ratio <= 1.0:
            delta = (f'<div class="delta-good">▼ {abs(1 - ratio) * 100:.0f}% '
                     f"vs median</div>")
        else:
            delta = (f'<div class="delta-bad">▲ {(ratio - 1) * 100:.0f}% '
                     f"vs median</div>")
        tiles.append(_tile("Latest wall time", _esc(_fmt_s(wall)),
                           note=f"median {_fmt_s(med)}", delta=delta))
    cache = latest.get("cache") or {}
    lookups = (cache.get("hits") or 0) + (cache.get("misses") or 0)
    if lookups:
        rate = cache["hits"] / lookups
        tiles.append(_tile("Cache hit rate", f"{rate * 100:.0f}%",
                           note=f'{cache["hits"]} hits / '
                                f'{cache["misses"]} misses'))
    tiles.append(_tile("Runs on ledger", str(len(runs)),
                       note=f"{len({r.get('object') for r in runs})} objects"))
    return f'<div class="tiles">{"".join(tiles)}</div>'


def _runs_table(runs: List[Dict[str, Any]], limit: int = 12) -> str:
    rows = []
    for record in reversed(runs[-limit:]):
        cache = record.get("cache") or {}
        lookups = (cache.get("hits") or 0) + (cache.get("misses") or 0)
        cache_cell = (
            f'{cache.get("hits", 0)}/{lookups}' if lookups else "—"
        )
        obligations = (record.get("obligations") or {}).get("total")
        jobs = (record.get("env") or {}).get("jobs") or "1"
        artifacts = record.get("artifacts") or {}
        links = " ".join(
            f'<a href="{_esc(path)}">{_esc(kind)}</a>'
            for kind, path in sorted(artifacts.items())
        ) or "—"
        rows.append(
            "<tr>"
            f"<td>{_esc(_fmt_ts(record.get('ts')))}</td>"
            f"<td>{_badge(record.get('ok'))}</td>"
            f'<td class="num">{_esc(_fmt_s(record.get("wall_s")))}</td>'
            f'<td class="num">{_esc(obligations if obligations is not None else "—")}</td>'
            f'<td class="num">{_esc(cache_cell)}</td>'
            f'<td class="num">{_esc(jobs)}</td>'
            f'<td class="mono">{_esc((record.get("digest") or "")[:12])}</td>'
            f"<td>{links}</td>"
            "</tr>"
        )
    return (
        "<table><thead><tr>"
        "<th>when (UTC)</th><th>status</th>"
        '<th class="num">wall</th><th class="num">obligations</th>'
        '<th class="num">cache h/l</th><th class="num">jobs</th>'
        "<th>record</th><th>artifacts</th>"
        f'</tr></thead><tbody>{"".join(rows)}</tbody></table>'
    )


def _object_section(name: str, runs: List[Dict[str, Any]]) -> str:
    walls = [v for _, v in _series(runs, "wall_s")]
    spark = ""
    if len(walls) >= 2:
        stats = series_stats(walls)
        spark = (
            sparkline_svg(walls, title=f"{name} wall time, {len(walls)} runs")
            + f'<div class="spark-caption">wall time · median '
              f'{_fmt_s(stats["median"])} · MAD {_fmt_s(stats["mad"])} · '
              f'latest {_fmt_s(stats["latest"])}</div>'
        )
    return (
        f"<h2>{_esc(name)}</h2>"
        f'<div class="panel">{spark}{_runs_table(runs)}</div>'
    )


def _series(runs: List[Dict[str, Any]], metric: str) -> List[Tuple[float, float]]:
    out = []
    for record in runs:
        value = run_metrics(record).get(metric)
        if value is not None:
            out.append((record.get("ts") or 0.0, value))
    return out


def _cache_panel(runs: List[Dict[str, Any]]) -> str:
    rates = [v for _, v in _series(runs, "cache_hit_rate")]
    if not rates:
        return ""
    latest = [r for r in runs if "cache_hit_rate" in run_metrics(r)][-1]
    cache = latest.get("cache") or {}
    lat = ""
    hits, misses = cache.get("hits", 0), cache.get("misses", 0)
    if hits and cache.get("hit_latency_s"):
        lat += f" · hit p_mean {_fmt_s(cache['hit_latency_s'] / hits)}"
    if misses and cache.get("miss_latency_s"):
        lat += f" · miss p_mean {_fmt_s(cache['miss_latency_s'] / misses)}"
    spark = sparkline_svg(rates, title=f"cache hit rate, {len(rates)} runs")
    return (
        "<h2>Cache efficacy</h2>"
        f'<div class="panel">{spark}'
        f'<div class="spark-caption">hit rate over {len(rates)} runs · '
        f"latest {rates[-1] * 100:.0f}%{lat}</div></div>"
    )


def _block_panel(block: Block, runs: List[Dict[str, Any]]) -> str:
    """One provenance block: a sparkline per metric the block reports
    over the runs, then the block's own lines for its latest value."""
    latest = None
    series: Dict[str, List[float]] = {}
    for record in runs:
        value = record.get(block.name)
        if value:
            latest = value
            for metric, number in block.metrics(value).items():
                series.setdefault(metric, []).append(number)
    if latest is None:
        return ""
    sparks = "".join(
        sparkline_svg(values, title=f"{metric}, {len(values)} runs")
        + f'<div class="spark-caption">{_esc(metric)} over {len(values)} '
          f"run(s) · latest {values[-1]:.4g}</div>"
        for metric, values in sorted(series.items())
    )
    return _text_panel(block.name, block.render(latest), sparks)


def _text_panel(title: str, lines: List[str], head: str = "") -> str:
    return (
        f"<h2>{_esc(title)}</h2>"
        f'<div class="panel">{head}<pre>{_esc(chr(10).join(lines))}</pre></div>'
    )


def _profiler_panel(runs: List[Dict[str, Any]]) -> str:
    """The latest run's profiler rollup (redundancy by axis)."""
    for record in reversed(runs):
        lines = render_run_summary(record)
        if lines:
            return _text_panel("profiler (latest run)", lines)
    return ""


def render_dashboard(
    runs: List[Dict[str, Any]],
    title: str = "repro verification runs",
    source: str = "",
) -> str:
    """Render run records (oldest first) into one self-contained HTML page."""
    body: List[str] = [f"<h1>{_esc(title)}</h1>"]
    subtitle = f"{len(runs)} runs"
    if source:
        subtitle += f" · ledger {source}"
    body.append(f'<p class="subtitle">{_esc(subtitle)}</p>')
    if not runs:
        body.append('<div class="panel">No runs on this ledger yet — arm it '
                    "with <code>REPRO_LEDGER=&lt;dir&gt;</code> or "
                    "<code>obs.ledger(dir)</code>.</div>")
    else:
        body.append(_kpi_row(runs))
        by_object: Dict[str, List[Dict[str, Any]]] = {}
        for record in runs:
            by_object.setdefault(record.get("object") or "?", []).append(record)
        for name in sorted(by_object):
            body.append(_object_section(name, by_object[name]))
        body.append(_cache_panel(runs))
        body.extend(_block_panel(block, runs) for block in BLOCKS.values())
        body.append(_profiler_panel(runs))
    body.append(
        '<div class="footer">schema repro.obs/run/v1 · generated by '
        "python -m repro.obs dashboard</div>"
    )
    return (
        "<!doctype html><html lang=\"en\"><head><meta charset=\"utf-8\">"
        f"<title>{_esc(title)}</title>"
        '<meta name="viewport" content="width=device-width, initial-scale=1">'
        f"<style>{_CSS}</style></head><body>"
        f'{"".join(body)}</body></html>'
    )


def write_dashboard(
    runs: List[Dict[str, Any]],
    path: str,
    title: str = "repro verification runs",
    source: str = "",
) -> str:
    """Render and write the dashboard; returns ``path``."""
    document = render_dashboard(runs, title=title, source=source)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(document)
    return path
