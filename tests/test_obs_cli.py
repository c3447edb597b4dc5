"""Tests for the ``python -m repro.obs`` CLI, the HTML report, and the
counter/gauge round-trip through Chrome trace export (ISSUE 3).
"""

import json

import pytest

from repro.obs import (
    Recorder,
    chrome_trace,
    dumps_canonical,
    recorder_from_chrome_trace,
    svg_timeline,
    write_report,
)
from repro.obs.__main__ import main
from repro.simmpi import Comm, UniformCost, run

from tests.test_golden_trace import _simmpi_scenario


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    """Chrome trace of the golden 4-rank SimMPI scenario."""
    result = _simmpi_scenario()
    path = tmp_path_factory.mktemp("trace") / "run.json"
    path.write_text(json.dumps(chrome_trace(result.observer)))
    return str(path)


def _history_lines(values, name="bench.demo"):
    return "".join(
        json.dumps({"name": name, "seconds": v, "virtual_seconds": v}) + "\n"
        for v in values
    )


class TestChromeRoundTrip:
    def test_counters_and_gauges_survive(self):
        rec = Recorder()
        rec.add_span("work", 0.0, 1.0, track=0, cat="compute")
        rec.count("msgs", 3)
        rec.count("bytes", 1024)
        g = rec.gauge("depth")
        g.set(2.0)
        g.set(7.0)
        g.set(4.0)
        back = recorder_from_chrome_trace(chrome_trace(rec))
        assert back.spans == rec.spans
        assert {n: c.value for n, c in back.counters.items()} == {
            "msgs": 3.0, "bytes": 1024.0,
        }
        gb = back.gauges["depth"]
        assert (gb.value, gb.lo, gb.hi, gb.samples) == (4.0, 2.0, 7.0, 3)

    def test_unsampled_gauge_round_trips_without_infinities(self):
        rec = Recorder()
        rec.add_span("w", 0.0, 0.5)
        rec.gauge("never_set")  # lo/hi are the +-inf sentinels
        doc = chrome_trace(rec)
        dumps_canonical(doc)  # allow_nan=False: infinities would raise
        gb = recorder_from_chrome_trace(doc).gauges["never_set"]
        assert gb.samples == 0
        assert gb.value == 0.0

    def test_counter_events_are_chrome_ph_c(self):
        rec = Recorder()
        rec.add_span("w", 0.0, 1.0)
        rec.count("n", 5)
        counter_evs = [
            ev for ev in chrome_trace(rec)["traceEvents"] if ev["ph"] == "C"
        ]
        (ev,) = counter_evs
        assert ev["name"] == "n"
        assert ev["cat"] == "counter"
        assert ev["args"]["value"] == 5.0

    def test_engine_run_round_trips(self):
        def program(comm: Comm):
            yield comm.elapse(0.1)
            yield comm.allreduce(comm.rank)

        result = run(program, 3, UniformCost(latency_s=1e-5, mbytes_s=100.0))
        back = recorder_from_chrome_trace(chrome_trace(result.observer))
        assert sorted(back.spans, key=hash) == sorted(result.observer.spans, key=hash)
        assert back.counters.keys() == result.observer.counters.keys()


class TestAnalyzeCommand:
    def test_analyze_prints_all_sections(self, trace_file, capsys):
        assert main(["analyze", trace_file]) == 0
        out = capsys.readouterr().out
        assert "wait states" in out
        assert "coverage 100%" in out
        assert "load balance" in out
        assert "critical path" in out
        assert "counters:" in out and "simmpi.msgs_sent" in out

    def test_analyze_with_predictions(self, trace_file, tmp_path, capsys):
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps({"warmup": {"flops": 2e6, "mem_bytes": 1e5}}))
        assert main(["analyze", trace_file, "--predict", str(pred)]) == 0
        out = capsys.readouterr().out
        assert "perf-model attribution" in out
        assert "warmup" in out

    def test_rejects_non_object_predictions(self, trace_file, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        with pytest.raises(SystemExit):
            main(["analyze", trace_file, "--predict", str(bad)])


class TestReportCommand:
    def test_report_is_self_contained_html(self, trace_file, tmp_path, capsys):
        out_path = tmp_path / "report.html"
        hist = tmp_path / "history.jsonl"
        hist.write_text(_history_lines([1.0] * 5))
        assert main([
            "report", trace_file, "-o", str(out_path),
            "--title", "golden run", "--history", str(hist),
        ]) == 0
        html = out_path.read_text()
        assert html.lower().startswith("<!doctype html>")
        assert "golden run" in html
        assert "<svg" in html and "Critical path" in html
        assert "bench history" in html
        # Self-contained: no external fetches of any kind.
        assert "http://" not in html.replace("http://www.w3.org", "")
        assert "https://" not in html
        assert "<script" not in html and "<link" not in html

    def test_svg_timeline_has_lane_per_rank(self):
        result = _simmpi_scenario()
        svg = svg_timeline(
            result.observer.spans, elapsed=result.elapsed,
            path=[],
        )
        for rank in range(4):
            assert f"rank {rank}" in svg

    def test_write_report_default_sections(self, tmp_path):
        rec = Recorder()
        rec.add_span("solo", 0.0, 1.0, track=0, cat="compute")
        out = write_report(str(tmp_path / "r.html"), rec, title="t", elapsed=1.0)
        html = open(out).read()
        assert "Timeline" in html and "Load balance" in html


class TestCompareCommand:
    def test_clean_history_exits_zero(self, tmp_path, capsys):
        hist = tmp_path / "h.jsonl"
        hist.write_text(_history_lines([1.0] * 6))
        assert main(["compare", str(hist)]) == 0
        assert "OK: no regressions" in capsys.readouterr().out

    def test_ten_percent_slowdown_exits_one(self, tmp_path, capsys):
        hist = tmp_path / "h.jsonl"
        hist.write_text(_history_lines([1.0] * 5 + [1.10]))
        assert main(["compare", str(hist)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_virtual_seconds_metric_and_json_output(self, tmp_path, capsys):
        hist = tmp_path / "h.jsonl"
        hist.write_text(
            _history_lines([1.0] * 5 + [1.10]) + _history_lines([2.0] * 6, "other")
        )
        rc = main([
            "compare", str(hist), "--metric", "virtual_seconds", "--json",
        ])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False
        assert doc["metric"] == "virtual_seconds"
        statuses = {b["name"]: b["status"] for b in doc["benches"]}
        assert statuses == {"bench.demo": "regression", "other": "ok"}

    def test_threshold_is_tunable(self, tmp_path):
        hist = tmp_path / "h.jsonl"
        hist.write_text(_history_lines([1.0] * 5 + [1.10]))
        assert main(["compare", str(hist), "--threshold", "0.15"]) == 0


class TestFleetGateNeedsBaseline:
    """A gate that compares nothing must not pass: without a baseline
    that holds records every row is `skipped` and the verdict was OK."""

    @pytest.mark.parametrize("gate", (["--gate"], ["--gate-spec", "virtual_seconds:0.15"]))
    def test_gate_without_baseline_is_a_usage_error(self, gate, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["fleet", "--bench", "table7_loki", "--out", str(out), *gate])
        assert exc.value.code == 2
        assert "--baseline" in capsys.readouterr().err
        assert not out.exists()  # refused before any bench ran

    def test_baseline_without_records_is_refused(self, tmp_path, capsys):
        out = tmp_path / "out"
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n{not json\n")
        with pytest.raises(SystemExit) as exc:
            main(["fleet", "--bench", "table7_loki", "--out", str(out),
                  "--baseline", str(empty), "--gate"])
        assert exc.value.code == 2
        assert "holds no record" in capsys.readouterr().err
        assert not out.exists()

    def test_gate_with_baseline_runs_and_compares(self, tmp_path, capsys):
        baseline = tmp_path / "b.jsonl"
        baseline.write_text(_history_lines([0.0] * 3, "table7_loki"))
        rc = main(["fleet", "--bench", "table7_loki", "--out", str(tmp_path / "out"),
                   "--baseline", str(baseline), "--gate-spec", "virtual_seconds:0.15"])
        assert rc == 0
        assert "FLEET GATE OK" in capsys.readouterr().out
