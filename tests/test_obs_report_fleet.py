"""Tests for the fleet's text report: ``repro.obs.fleet.format_suite``
(the suite table) followed by ``format_comparison_report`` (the gate
tables), as ``python -m repro.obs fleet`` prints them.

One synthetic ledger + history + gate verdict carries a failed bench,
a gate regression, wait counters on one bench only and a hostile
bench name; each test checks one part of what the fleet text shows.
"""

from repro.analysis.tables import _fmt
from repro.obs.fleet import format_suite
from repro.obs.history import MetricGate, compare_history, format_comparison_report


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
    no host, no timestamps)."""
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
        _row("alpha", seconds=1.1, virtual=10.0, tags=("fixture", "simmpi"), counters={
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


def _cells(table_lines):
    """Bench name -> the cells of its row (no cell holds a space)."""
    return {line.split()[0]: line.split() for line in table_lines}


def _suite_cells(rows):
    """Title line and bench -> row cells of the suite table."""
    lines = format_suite(rows).splitlines()
    return lines[0], _cells(lines[3:])


class TestWaitBar:
    def test_wait_causes_extraction(self):
        record = _row("r", counters={
            "wait.late-sender_s": 1.5, "wait.transfer_s": 0.5, "other": 9.0,
        })
        _, cells = _suite_cells([record])
        # Blocked seconds sum only the wait.<cause>_s counters.
        assert cells["r"][5:] == ["2", "late-sender"]


class TestFleetReport:
    def test_hostile_bench_names_are_escaped(self):
        # Text has nothing to escape: the name prints verbatim, and
        # every row of the table keeps the same width.
        rows, _, _ = _golden_inputs()
        lines = format_suite(rows).splitlines()
        assert len({len(line) for line in lines[1:]}) == 1
        assert _cells(lines[3:])["<script>alert(1)</script>"] == [
            "<script>alert(1)</script>", "computed", "fixture", "0.2", "1", "-", "-",
        ]

    def test_failure_and_gate_verdicts_render(self):
        rows, _, multi = _golden_inputs()
        assert not multi.ok  # beta_smoke's virtual_seconds tripled
        title, cells = _suite_cells(rows)
        assert title == "suite: 4 bench(es), 1 FAILED"
        assert cells["alpha"][:5] == ["alpha", "computed", "fixture,simmpi", "1.1", "10"]
        assert cells["beta_smoke"][:5] == ["beta_smoke", "computed", "fixture", "0.5", "15"]
        assert cells["broken"][:5] == ["broken", "failed", "fixture", "0", "-"]
        blocks = format_comparison_report(multi).split("\n\n")
        assert len(blocks) == len(multi.gates) + 1
        for gate, block in zip(multi.gates, blocks):
            gated = [r for r in multi.rows if r.metric == gate.metric]
            table = _cells(block.splitlines()[3:3 + len(gated)])
            assert set(table) == {r.name for r in gated}
            for r in gated:
                cells = table[r.name]
                assert cells[2:4] == [_fmt("-" if v is None else v)
                                      for v in (r.baseline, r.latest)]
                assert cells[5] == r.status
        statuses = {(r.name, r.metric): r.status for r in multi.rows}
        assert statuses[("beta_smoke", "virtual_seconds")] == "regression"
        assert "FLEET GATE REGRESSION in 1 bench-metric pair(s)" in blocks[-1]

    def test_wait_section_only_for_benches_with_wait_counters(self):
        rows, _, _ = _golden_inputs()
        _, cells = _suite_cells(rows)
        assert {name: c[5:] for name, c in cells.items()} == {
            "alpha": ["2", "late-sender"],
            "beta_smoke": ["-", "-"],
            "broken": ["-", "-"],
            "<script>alert(1)</script>": ["-", "-"],
        }
        _, bare = _suite_cells([_row("plain")])
        assert bare["plain"][5:] == ["-", "-"]

    def test_empty_ledger_renders(self):
        assert format_suite([]).splitlines()[0] == "suite: 0 bench(es)"
