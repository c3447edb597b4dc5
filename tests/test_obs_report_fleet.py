"""Tests for the fleet HTML report (repro.obs.report fleet section).

Edge cases first — empty/single-point/flat sparklines, HTML escaping
of hostile bench names, zero wait bars, gate-cell states — then one
golden-file test: ``fleet_report`` is deterministic for fixed inputs
(no timestamps, no environment), so the rendered page for a synthetic
ledger is pinned byte-for-byte under ``tests/golden/``.
"""

import os

from repro.obs.history import MetricGate, compare_history
from repro.obs.report import (
    _gate_cell,
    _wait_bar,
    _wait_causes,
    fleet_report,
    svg_sparkline,
    write_fleet_report,
)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


class TestSparkline:
    def test_empty_series_renders_placeholder(self):
        out = svg_sparkline([])
        assert "no history" in out
        assert "<svg" not in out

    def test_single_point_is_a_dot_not_a_line(self):
        out = svg_sparkline([3.0], label="solo")
        assert "<circle" in out
        assert "<polyline" not in out
        # Centered: x = width/2 for the lone point.
        assert "cx='65.00'" in out

    def test_flat_series_draws_midband_line(self):
        out = svg_sparkline([2.0, 2.0, 2.0])
        assert "<polyline" in out
        # Zero range must not divide by zero: every y sits mid-band.
        assert out.count(",13.00") == 3

    def test_label_and_values_are_escaped_into_title(self):
        out = svg_sparkline([1.0, 2.0], label="<b>evil</b>")
        assert "<b>" not in out
        assert "&lt;b&gt;evil&lt;/b&gt;" in out
        assert "1, 2" in out  # series tooltip

    def test_trend_polyline_is_monotone_for_monotone_data(self):
        out = svg_sparkline([1.0, 2.0, 3.0])
        assert "<polyline" in out
        assert "<circle" in out  # latest point marked


class TestWaitBar:
    def test_zero_total_renders_placeholder(self):
        assert "no blocked time" in _wait_bar({})
        assert "no blocked time" in _wait_bar({"transfer": 0.0})

    def test_segments_carry_cause_and_share(self):
        out = _wait_bar({"late-sender": 3.0, "transfer": 1.0})
        assert out.count("<rect") == 2
        assert "late-sender: 3s (75%)" in out
        assert "transfer: 1s (25%)" in out

    def test_wait_causes_extraction(self):
        record = {"counters": {
            "wait.late-sender_s": 1.5, "wait.transfer_s": 0.5, "other": 9.0,
        }}
        assert _wait_causes(record) == {"late-sender": 1.5, "transfer": 0.5}


class TestGateCell:
    def test_regression_is_red_and_names_metrics(self):
        cell = _gate_cell({"seconds": "ok", "virtual_seconds": "regression"})
        assert "bad" in cell and "FAIL" in cell and "virtual_seconds" in cell

    def test_all_ok_is_green(self):
        assert "OK" in _gate_cell({"seconds": "ok", "virtual_seconds": "skipped"})

    def test_never_gated_is_muted(self):
        assert "no baseline" in _gate_cell({})
        assert "no baseline" in _gate_cell({"seconds": "skipped"})


def _row(name, *, status="computed", seconds=1.0, virtual=10.0, counters=None,
         error=None, tags=("fixture",)):
    stamp = {
        "id": "deadbeef" * 4, "mode": "smoke", "bench": name,
        "status": status, "shard_seconds": seconds, "tags": list(tags),
    }
    if error:
        stamp["error"] = error
    return {
        "schema_version": 1, "name": name, "params": {"smoke": True},
        "seconds": seconds, "virtual_seconds": virtual,
        "counters": dict(counters or {}), "git_rev": "0000000",
        "host": "golden-host", "notes": "", "fleet": stamp,
    }


def _golden_inputs():
    """Fixed synthetic ledger + history + gate verdict (no wall time,
    no host, no timestamps — rendering must be byte-stable)."""
    history = []
    for i in range(4):
        history.append({
            "name": "alpha", "seconds": 1.0 + 0.05 * i, "virtual_seconds": 10.0,
            "counters": {"cellcache.hit_rate": 0.90},
        })
        history.append({
            "name": "beta_smoke", "seconds": 0.5, "virtual_seconds": 5.0,
            "counters": {},
        })
    rows = [
        _row("alpha", seconds=1.1, virtual=10.0, counters={
            "cellcache.hit_rate": 0.91,
            "wait.late-sender_s": 1.5, "wait.transfer_s": 0.5,
        }),
        # 3x slower virtual time: trips the default virtual_seconds gate.
        _row("beta_smoke", status="computed", seconds=0.5, virtual=15.0),
        _row("broken", status="failed", seconds=0.0, virtual=0.0,
             error="RuntimeError: boom"),
        _row("<script>alert(1)</script>", seconds=0.2, virtual=1.0),
    ]
    live = [r for r in rows if r["fleet"]["status"] != "failed"]
    gates = (
        MetricGate("virtual_seconds", 0.15),
        MetricGate("seconds", 4.0),
        MetricGate("counters.recovery_overhead_s", 0.25),
        MetricGate("counters.cellcache.hit_rate", 0.10, direction="higher"),
    )
    multi = compare_history(history + live, gates, window=5)
    return rows, history, multi


class TestFleetReport:
    def test_hostile_bench_names_are_escaped(self):
        rows, history, multi = _golden_inputs()
        doc = fleet_report(rows, history=history, multi=multi)
        assert "<script>alert(1)</script>" not in doc
        assert "&lt;script&gt;alert(1)&lt;/script&gt;" in doc

    def test_failure_and_gate_verdicts_render(self):
        rows, history, multi = _golden_inputs()
        assert not multi.ok  # beta_smoke's virtual_seconds tripled
        doc = fleet_report(rows, history=history, multi=multi)
        assert "1 bench(es) FAILED" in doc
        assert "FLEET GATE REGRESSION" in doc
        assert "FAIL (virtual_seconds)" in doc       # beta's gate cell
        assert "no baseline" in doc                  # never-gated benches
        assert "<span class='bad'>failed</span>" in doc

    def test_wait_section_only_for_benches_with_wait_counters(self):
        rows, history, multi = _golden_inputs()
        doc = fleet_report(rows, history=history, multi=multi)
        assert "<h2>Wait states</h2>" in doc
        assert "late-sender" in doc
        bare = fleet_report([_row("plain")])
        assert "<h2>Wait states</h2>" not in bare

    def test_empty_ledger_renders(self):
        doc = fleet_report([])
        assert "0 bench(es)" in doc
        assert "all benches completed" in doc

    def test_no_multi_renders_muted_gate_column(self):
        doc = fleet_report([_row("alpha")])
        assert "<h2>Multi-metric gate</h2>" not in doc

    def test_write_fleet_report_roundtrip(self, tmp_path):
        rows, history, multi = _golden_inputs()
        path = write_fleet_report(
            str(tmp_path / "r.html"), rows, history=history, multi=multi,
        )
        with open(path) as fh:
            assert fh.read() == fleet_report(rows, history=history, multi=multi)

    def test_golden_file(self):
        """Pin the rendered page byte-for-byte.

        Regenerate after an intentional rendering change with:
        ``PYTHONPATH=src:tests python -c "import test_obs_report_fleet as t;
        t.regenerate_golden()"``
        """
        rows, history, multi = _golden_inputs()
        doc = fleet_report(rows, history=history, multi=multi,
                           title="golden fleet")
        with open(os.path.join(GOLDEN, "fleet_report.html")) as fh:
            assert doc == fh.read()


def regenerate_golden():
    rows, history, multi = _golden_inputs()
    doc = fleet_report(rows, history=history, multi=multi, title="golden fleet")
    path = os.path.join(GOLDEN, "fleet_report.html")
    with open(path, "w") as fh:
        fh.write(doc)
    print(f"wrote {path}")
