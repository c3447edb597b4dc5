"""Tests for the ``python -m repro.obs`` CLI and the counter round-trip
through Chrome trace export.
"""

import json
import re

import pytest

from repro.obs import (
    Recorder,
    chrome_trace,
    recorder_from_chrome_trace,
    wallclock,
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
    def test_counters_survive(self):
        rec = Recorder()
        rec.add_span("work", 0.0, 1.0, track=0, cat="compute")
        rec.count("msgs", 3)
        rec.count("bytes", 1024)
        doc = chrome_trace(rec)
        # A counter-phase event of any other category is not a counter.
        doc["traceEvents"].append({"name": "depth", "ph": "C", "cat": "gauge", "ts": 0.0,
                                   "pid": 0, "tid": 0, "args": {"value": 4.0}})
        back = recorder_from_chrome_trace(doc)
        assert back.spans == rec.spans
        assert {n: c.value for n, c in back.counters.items()} == {
            "msgs": 3.0, "bytes": 1024.0,
        }

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
        assert [g["metric"] for g in doc["gates"]] == ["virtual_seconds"]
        statuses = {b["name"]: b["status"] for b in doc["benches"]}
        assert statuses == {"bench.demo": "regression", "other": "ok"}

    def test_threshold_is_tunable(self, tmp_path):
        hist = tmp_path / "h.jsonl"
        hist.write_text(_history_lines([1.0] * 5 + [1.10]))
        assert main(["compare", str(hist), "--threshold", "0.15"]) == 0

    @pytest.mark.parametrize("content", ['{"not":"a trace"}\n', "\n{not json\n", None])
    def test_history_without_records_is_refused(self, content, tmp_path, capsys):
        # Zero benches compared used to read "OK: no regressions", exit 0.
        hist = tmp_path / "h.jsonl"
        if content is not None:
            hist.write_text(content)
        with pytest.raises(SystemExit) as exc:
            main(["compare", str(hist)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{hist}: ") and captured.err.count("\n") == 1


def _nesting_broken(path):
    rec = Recorder()
    rec.add_span("other", 0.0, 3.0)
    rec.add_span("kernel", 1.0, 2.0)
    rec.add_span("engine", 1.5, 2.5)
    path.write_text(json.dumps(chrome_trace(rec)))


class TestTraceLoaderRefuses:
    """One reader for ``analyze`` and ``wallclock --replay``: a file it
    cannot use is one line on stderr naming it, exit 2."""

    VERBS = {
        "analyze": lambda f, tmp: ["analyze", f],
            "replay": lambda f, tmp: ["wallclock", "--replay", f],
    }
    BAD = {
        "missing": (None, "No such file"),
        "not-json": ("<html>", "not JSON"),
        "no-traceEvents": ('{"not":"a trace"}', "no traceEvents list"),
        "not-an-object": ("[1, 2]", "no traceEvents list"),
        "no-span": ('{"traceEvents": [{"ph": "M", "name": "process_name"}]}',
                    "holds no span"),
        "bad-event": ('{"traceEvents": [{"ph": "X"}]}', "malformed trace event"),
    }

    @pytest.mark.parametrize("verb", sorted(VERBS))
    @pytest.mark.parametrize("bad", sorted(BAD))
    def test_unusable_trace_is_exit_2(self, verb, bad, tmp_path, capsys):
        content, reason = self.BAD[bad]
        path = tmp_path / "trace.json"
        if content is not None:
            path.write_text(content)
        with pytest.raises(SystemExit) as exc:
            main(self.VERBS[verb](str(path), tmp_path))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{path}: ") and reason in captured.err
        assert captured.err.count("\n") == 1

    PREDICTIONS = {
        "missing": (None, "No such file"),
        "not-json": ("{force", "not JSON"),
        "not-an-object": ("[1]", "must be a JSON object"),
        "not-a-prediction": ('{"force": "abc"}', "unusable prediction"),
    }

    @pytest.mark.parametrize("bad", sorted(PREDICTIONS))
    def test_unusable_predictions_are_exit_2(self, bad, trace_file, tmp_path, capsys):
        # Refused before the analysis prints anything.
        content, reason = self.PREDICTIONS[bad]
        path = tmp_path / "pred.json"
        if content is not None:
            path.write_text(content)
        with pytest.raises(SystemExit) as exc:
            main(["analyze", trace_file, "--predict", str(path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{path}: ") and reason in captured.err
        assert captured.err.count("\n") == 1

    def test_replay_refuses_spans_that_do_not_nest(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        _nesting_broken(path)
        with pytest.raises(SystemExit) as exc:
            main(["wallclock", "--replay", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{path}: ") and "partially overlaps" in err


class TestWallclockCommand:
    ARGS = ["wallclock", "--n", "300", "--ranks", "2", "--steps", "1"]

    @staticmethod
    def _table(out):
        lines = out.splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("span "))
        stop = next(i for i, line in enumerate(lines) if line.startswith("total "))
        return lines[start:stop + 1]

    def test_prints_the_five_buckets(self, capsys):
        # The table is per span name; through the prefix table its rows
        # charge every one of the five buckets.
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        names = [line.split()[0] for line in self._table(out)[1:-1]]
        assert {"simmpi.engine", "simmpi.dispatch", "gravity.kernel.cells",
                "core.parallel.admit", "other"} <= set(names)
        assert {wallclock.bucket_of(name) for name in names} == set(wallclock.BUCKETS)
        # The run has a cost model, so virtual time elapsed and the
        # critical-path block below the table is not dead code.
        path = out[out.index("critical path: "):]
        assert float(path.split()[2].rstrip("s")) > 0 and "collective #0 (allreduce)" in path

    def test_json_then_replay_print_the_same_table(self, tmp_path, capsys):
        trace = tmp_path / "wall.json"
        assert main(self.ARGS + ["--json", str(trace)]) == 0
        live = self._table(capsys.readouterr().out)
        assert main(["wallclock", "--replay", str(trace)]) == 0
        assert self._table(capsys.readouterr().out) == live
        # The file is an ordinary Chrome trace: the other verbs read it.
        assert main(["analyze", str(trace)]) == 0

    @pytest.mark.parametrize("flag,value", [("--n", "0"), ("--ranks", "0"), ("--steps", "0"),
                                            ("--n", "-5")])
    def test_size_below_one_is_a_usage_error(self, flag, value, capsys):
        args = {"--n": "300", "--ranks": "2", "--steps": "1", flag: value}
        with pytest.raises(SystemExit) as exc:
            main(["wallclock", *(part for item in args.items() for part in item)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{flag}: must be at least 1, got {value}\n"

    def test_fewer_particles_than_ranks_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["wallclock", "--n", "3", "--ranks", "4"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == "--n: must be at least --ranks (4), got 3\n"


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
        out = capsys.readouterr().out
        # The suite table, then the gate tables.
        suite = out.index("suite: 1 bench(es)\n")
        assert suite < out.index("bench history: metric=virtual_seconds")
        assert re.search(r"^table7_loki +computed ", out[suite:], re.M)
        assert "FLEET GATE OK" in out
