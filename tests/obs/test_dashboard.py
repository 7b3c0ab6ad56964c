"""The HTML dashboard renderer: self-contained output over ledger runs."""

from __future__ import annotations

import re

from repro.obs import dashboard, store


def _fixture_runs(n=10, slowdown_last=False):
    runs = []
    for i in range(n):
        wall = 1.0 + 0.01 * ((-1) ** i)
        if slowdown_last and i == n - 1:
            wall = 2.0
        runs.append({
            "schema": store.RUN_SCHEMA,
            "kind": "engine",
            "ts": 1000.0 + i,
            "object": "ticket_lock",
            "ok": i != 3,
            "wall_s": wall,
            "digest": f"{i:064x}",
            "certificates": [
                {"judgment": "A ⊢ x", "rule": "Fun", "ok": True,
                 "digest": "d" * 64, "fingerprint": "f" * 64,
                 "obligations": {"total": 75, "failed": 0}}
            ],
            "obligations": {"total": 75, "failed": 0},
            "cache": {"hits": 3 * i, "misses": 2,
                      "hit_latency_s": 0.001, "miss_latency_s": 0.002},
            "profile": {"redundancy": {"ratio": 0.843, "explored": 10634,
                                       "distinct": 1670}},
            "redundancy_by_axis": {
                "soundness.game": {"ratio": 0.843, "explored": 10634,
                                   "distinct": 1670},
                "sim.env": {"ratio": 0.31, "explored": 500, "distinct": 345},
            },
            "env": {"jobs": "2"},
            "artifacts": {"heartbeat": f"run{i}.heartbeat.jsonl"},
        })
    return runs


class TestRenderDashboard:
    def test_self_contained_html(self):
        html = dashboard.render_dashboard(_fixture_runs())
        assert html.startswith("<!doctype html>")
        # no external resources: everything inline
        assert "http://" not in html and "https://" not in html
        assert "<script" not in html
        assert "<style>" in html and "<svg" in html

    def test_renders_run_table_and_sparkline(self):
        html = dashboard.render_dashboard(_fixture_runs())
        assert "ticket_lock" in html
        assert "<polyline" in html  # the wall-time sparkline
        assert "✓ ok" in html and "✗ fail" in html  # status badges w/ text
        assert "tabular-nums" in html

    def test_renders_cache_and_redundancy_panels(self):
        html = dashboard.render_dashboard(_fixture_runs())
        assert "Cache efficacy" in html
        assert "redundancy by axis" in html
        assert "soundness.game" in html
        assert "84.3%" in html
        assert "10634 explored, 1670 distinct" in html

    def test_links_artifacts(self):
        html = dashboard.render_dashboard(_fixture_runs())
        assert 'href="run9.heartbeat.jsonl"' in html

    def test_dark_mode_tokens_present(self):
        html = dashboard.render_dashboard(_fixture_runs())
        assert "prefers-color-scheme: dark" in html
        assert 'data-theme="dark"' in html
        # series color is the validated categorical slot 1 (both modes)
        assert "#2a78d6" in html and "#3987e5" in html

    def test_escapes_untrusted_labels(self):
        runs = _fixture_runs(4)
        for record in runs:
            record["object"] = "<script>alert(1)</script>"
        html = dashboard.render_dashboard(runs)
        assert "<script>alert(1)</script>" not in html
        assert "&lt;script&gt;" in html

    def test_empty_ledger_renders_hint(self):
        html = dashboard.render_dashboard([])
        assert "No runs on this ledger yet" in html
        assert "REPRO_LEDGER" in html

    def test_write_dashboard(self, tmp_path):
        out = tmp_path / "dash.html"
        path = dashboard.write_dashboard(_fixture_runs(), str(out))
        assert path == str(out)
        assert out.read_text(encoding="utf-8").startswith("<!doctype html>")


class TestSparkline:
    def test_needs_two_points(self):
        assert dashboard.sparkline_svg([1.0]) == ""
        assert dashboard.sparkline_svg([]) == ""

    def test_svg_geometry_within_viewbox(self):
        svg = dashboard.sparkline_svg([1.0, 2.0, 1.5, 3.0], width=100,
                                      height=40)
        assert 'viewBox="0 0 100 40"' in svg
        coords = [
            float(value)
            for pair in re.search(r'points="([^"]+)"', svg).group(1).split()
            for value in pair.split(",")
        ]
        assert all(0 <= value <= 100 for value in coords)

    def test_flat_series_does_not_divide_by_zero(self):
        svg = dashboard.sparkline_svg([2.0, 2.0, 2.0])
        assert "<polyline" in svg

    def test_stroke_spec(self):
        svg = dashboard.sparkline_svg([1.0, 2.0])
        assert 'stroke-width="2"' in svg  # 2px line per the mark spec
        assert "var(--series-1)" in svg
