"""Tests for repro.obs.history: rolling baselines and the regression gate.

The headline acceptance check from ISSUE 3: on a synthetic history
where the latest run is 10% slower, ``compare_history`` flags exactly
that bench; on the unmodified history it flags nothing.  The harness
side (``benchmarks/_harness.append_history`` and the ``cli`` flags that
reach it) is tested against temporary targets.
"""

import json
import os
import sys

import pytest

from repro.obs import (
    DEFAULT_FLEET_GATES,
    MetricGate,
    compare_history,
    format_comparison_report,
    load_history,
    parse_gate_spec,
    robust_baseline,
)
from repro.obs.history import _metric_value

BENCH_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks"
)


SECONDS = (MetricGate("seconds"),)


def _entries(name, values, metric="seconds", **extra):
    return [{"name": name, metric: v, **extra} for v in values]


class TestRobustBaseline:
    def test_median_and_mad_sigma(self):
        med, sigma = robust_baseline([1.0, 1.2, 0.9, 1.1, 1.0])
        assert med == 1.0
        assert sigma == pytest.approx(1.4826 * 0.1)

    def test_even_sample_median(self):
        med, sigma = robust_baseline([1.0, 2.0])
        assert med == 1.5
        assert sigma == pytest.approx(1.4826 * 0.5)

    def test_deterministic_metric_has_zero_sigma(self):
        med, sigma = robust_baseline([0.5, 0.5, 0.5])
        assert (med, sigma) == (0.5, 0.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            robust_baseline([])


class TestCompareHistory:
    def test_detects_ten_percent_slowdown(self):
        clean = _entries("treecode", [1.0, 1.0, 1.0, 1.0, 1.0])
        report = compare_history(clean + _entries("treecode", [1.10]), SECONDS)
        (row,) = report.rows
        assert row.status == "regression"
        assert row.delta == pytest.approx(0.10)
        assert not report.ok
        assert "REGRESSION" in format_comparison_report(report)

    def test_unmodified_history_is_clean(self):
        report = compare_history(_entries("treecode", [1.0] * 6), SECONDS)
        (row,) = report.rows
        assert row.status == "ok"
        assert report.ok
        assert "OK: no regressions" in format_comparison_report(report)

    def test_improvement_flagged_but_not_failing(self):
        report = compare_history(_entries("npb.ep", [2.0] * 5 + [1.0]), SECONDS)
        (row,) = report.rows
        assert row.status == "improvement"
        assert report.ok

    def test_noise_model_blocks_false_positive(self):
        # Latest is +8% over the median, past the 5% threshold, but the
        # baseline itself is noisy: 3 robust sigmas gate it to "ok".
        noisy = _entries("wall", [1.0, 1.2, 0.9, 1.1, 1.0, 1.08])
        (row,) = compare_history(noisy, SECONDS).rows
        assert row.status == "ok"
        # The same excursion on a deterministic baseline is a regression.
        exact = _entries("virt", [1.0] * 5 + [1.08])
        (row,) = compare_history(exact, SECONDS).rows
        assert row.status == "regression"

    def test_rolling_window_forgets_ancient_runs(self):
        # Ancient slow runs fall outside window=3; the recent fast
        # baseline is what the (slow again) latest run compares against.
        values = [2.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.4]
        (row,) = compare_history(_entries("b", values), SECONDS, window=3).rows
        assert row.baseline == 1.0
        assert row.status == "regression"

    def test_single_run_is_skipped(self):
        (row,) = compare_history(_entries("once", [1.0]), SECONDS).rows
        assert row.status == "skipped"

    def test_counter_metric_and_nonpositive_exclusion(self):
        entries = [
            {"name": "b", "seconds": 0.1, "virtual_seconds": 0.0,
             "counters": {"ops": 100.0}}
            for _ in range(5)
        ] + [
            {"name": "b", "seconds": 0.1, "virtual_seconds": 0.0,
             "counters": {"ops": 120.0}}
        ]
        (row,) = compare_history(entries, (MetricGate("counters.ops"),)).rows
        assert row.status == "regression"  # +20% in the counter
        # virtual_seconds is 0 on every run -> no comparable runs at all.
        assert compare_history(entries, (MetricGate("virtual_seconds"),)).rows == []

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            compare_history([], SECONDS, window=0)
        with pytest.raises(ValueError, match="distinct metrics"):
            compare_history([], SECONDS + (MetricGate("seconds", 4.0),))

    def test_per_bench_isolation(self):
        mixed = (
            _entries("fast", [1.0] * 6)
            + _entries("slow", [1.0] * 5 + [1.5])
        )
        report = compare_history(mixed, SECONDS)
        assert {r.name: r.status for r in report.rows} == {
            "fast": "ok", "slow": "regression",
        }
        assert [r.name for r in report.regressions] == ["slow"]


class TestLoadHistory:
    def test_skips_blank_and_corrupt_lines(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text(
            json.dumps({"name": "a", "seconds": 1.0}) + "\n"
            "\n"
            "{not json\n"
            '"just a string"\n'
            + json.dumps({"seconds": 2.0}) + "\n"  # no name -> skipped
            + json.dumps({"name": "b", "seconds": 2.0}) + "\n"
        )
        entries = load_history(str(path))
        assert [e["name"] for e in entries] == ["a", "b"]


class TestHarnessAppendHistory:
    @pytest.fixture()
    def harness(self):
        if BENCH_DIR not in sys.path:
            sys.path.insert(0, BENCH_DIR)
        import _harness

        return _harness

    def test_appends_jsonl_with_timestamp(self, harness, tmp_path):
        path = tmp_path / "h.jsonl"
        record = {"name": "bench.x", "seconds": 1.25}
        assert harness.append_history(record, str(path)) == str(path)
        harness.append_history(record, str(path))
        entries = load_history(str(path))
        assert len(entries) == 2
        assert entries[0]["name"] == "bench.x"
        assert "ts" in entries[0]
        assert record == {"name": "bench.x", "seconds": 1.25}  # input untouched

    def test_directory_target_gets_default_filename(self, harness, tmp_path):
        out = harness.append_history({"name": "y", "seconds": 1.0}, str(tmp_path))
        assert out == str(tmp_path / "history.jsonl")
        assert os.path.exists(out)

    def test_env_variable_default(self, harness, tmp_path, monkeypatch):
        # The retired ambient channel stays retired: with the variable
        # set, a call that names no destination writes nothing.
        target = tmp_path / "envhist.jsonl"
        monkeypatch.setenv("REPRO_BENCH_HISTORY", str(target))
        with pytest.raises(TypeError):
            harness.append_history({"name": "z", "seconds": 1.0})
        assert not target.exists()

    def test_noop_without_destination(self, harness):
        with pytest.raises(TypeError):
            harness.append_history({"name": "q", "seconds": 1.0})

    def test_bench_cli_appends_history(self, harness, tmp_path, monkeypatch):
        # A bench run only returns its record, whatever the environment
        # says; the shared bench command line is the standalone writer.
        ambient = tmp_path / "ambient"
        monkeypatch.setenv("REPRO_BENCH_HISTORY", str(ambient / "h.jsonl"))
        monkeypatch.setenv("REPRO_BENCH_DIR", str(ambient))
        bench = harness.Bench(("unit",), lambda: 41 + 1, lambda out: None, virtual_seconds=0.5)

        record = bench.run("unit.history")
        assert not ambient.exists()

        target = tmp_path / "run.jsonl"
        path = "bench_unit.history.py"
        assert bench.cli(path, argv=["--history", str(target)])["name"] == "unit.history"
        (entry,) = load_history(str(target))
        assert entry["name"] == "unit.history"
        assert entry["virtual_seconds"] == 0.5
        assert {k: v for k, v in entry.items() if k not in ("ts", "seconds")} == {
            k: v for k, v in record.items() if k != "seconds"
        }

        out = tmp_path / "out"
        emitted = bench.cli(path, argv=["--smoke", "--out", str(out)])
        assert os.listdir(out) == ["BENCH_unit.history.json"]
        with open(out / "BENCH_unit.history.json") as fh:
            assert json.load(fh) == emitted
        assert len(load_history(str(target))) == 1  # --out alone appends nothing
        assert not ambient.exists()


class TestDottedMetricPaths:
    """Regression suite for the ``_metric_value`` dotted-path fix:
    bench counters are a *flat* ``str -> float`` map whose keys may
    themselves contain dots (``cellcache.hit_rate``), so a flat key
    must win before any nested descent is attempted."""

    def test_flat_dotted_counter_key_resolves(self):
        entry = {"name": "b", "counters": {"cellcache.hit_rate": 0.9}}
        assert _metric_value(entry, "counters.cellcache.hit_rate") == 0.9

    def test_nested_mapping_still_resolves(self):
        entry = {"name": "b", "counters": {"cellcache": {"hit_rate": 0.8}}}
        assert _metric_value(entry, "counters.cellcache.hit_rate") == 0.8

    def test_flat_key_wins_over_nested_descent(self):
        entry = {"name": "b", "counters": {
            "cellcache.hit_rate": 0.9, "cellcache": {"hit_rate": 0.1},
        }}
        assert _metric_value(entry, "counters.cellcache.hit_rate") == 0.9

    def test_missing_and_non_numeric_yield_none(self):
        assert _metric_value({"name": "b"}, "counters.x") is None
        assert _metric_value({"counters": {"x": "fast"}}, "counters.x") is None
        assert _metric_value({"counters": {"x": True}}, "counters.x") is None
        assert _metric_value({"counters": 3.0}, "counters.x") is None

    def test_compare_history_gates_on_dotted_counter(self):
        entries = [
            {"name": "b", "counters": {"cellcache.hit_rate": v}}
            for v in (0.9, 0.9, 0.9, 0.9, 0.4)  # latest collapses
        ]
        report = compare_history(
            entries, (MetricGate("counters.cellcache.hit_rate", 0.1, "higher"),),
        )
        (row,) = report.rows
        assert row.status == "regression"


class TestMetricGateSpec:
    def test_parse_forms(self):
        gate = parse_gate_spec("virtual_seconds")
        assert gate == MetricGate("virtual_seconds", 0.05, "lower")
        assert parse_gate_spec("seconds:2.0").threshold == 2.0
        gate = parse_gate_spec("counters.cellcache.hit_rate:0.1:higher")
        assert gate.metric == "counters.cellcache.hit_rate"
        assert gate.direction == "higher"
        # Empty threshold field keeps the default.
        assert parse_gate_spec("seconds::higher").threshold == 0.05

    def test_parse_rejects_malformed_specs(self):
        with pytest.raises(ValueError):
            parse_gate_spec(":0.1")
        with pytest.raises(ValueError):
            parse_gate_spec("a:b:c:d")
        with pytest.raises(ValueError):
            parse_gate_spec("seconds:0.1:sideways")

    def test_metric_gate_validates(self):
        with pytest.raises(ValueError):
            MetricGate("seconds", threshold=0.0)
        with pytest.raises(ValueError):
            MetricGate("seconds", direction="up")

    def test_default_fleet_gates_cover_issue_metrics(self):
        # Wall seconds are not gated by the fleet: perfbench --compare's.
        assert DEFAULT_FLEET_GATES == (
            MetricGate("virtual_seconds", 0.15),
            MetricGate("counters.recovery_overhead_s", 0.25),
            MetricGate("counters.cellcache.hit_rate", 0.10, direction="higher"),
        )


class TestMultiMetricGate:
    @staticmethod
    def _history():
        entries = []
        for _ in range(4):
            entries.append({"name": "t", "seconds": 1.0, "virtual_seconds": 10.0,
                            "counters": {"cellcache.hit_rate": 0.9}})
            entries.append({"name": "cheap", "seconds": 0.2})
        return entries

    #: The fleet's gates plus wall seconds, so one history exercises
    #: timings, a virtual counter and a higher-is-better rate at once.
    GATES = DEFAULT_FLEET_GATES + (MetricGate("seconds", 4.0),)

    def test_clean_history_passes_every_gate(self):
        multi = compare_history(self._history() + [
            {"name": "t", "seconds": 1.0, "virtual_seconds": 10.0,
             "counters": {"cellcache.hit_rate": 0.9}},
        ], self.GATES)
        assert multi.ok
        assert "FLEET GATE OK" in format_comparison_report(multi)

    def test_one_regressed_metric_fails_the_whole_gate(self):
        multi = compare_history(self._history() + [
            {"name": "t", "seconds": 1.0, "virtual_seconds": 14.0,  # +40%
             "counters": {"cellcache.hit_rate": 0.9}},
        ], self.GATES)
        assert not multi.ok
        assert [(r.metric, r.name) for r in multi.regressions] == \
            [("virtual_seconds", "t")]
        assert "FLEET GATE REGRESSION in 1 bench-metric pair(s)" in \
            format_comparison_report(multi)

    def test_hit_rate_gates_downward_drift(self):
        multi = compare_history(self._history() + [
            {"name": "t", "seconds": 1.0, "virtual_seconds": 10.0,
             "counters": {"cellcache.hit_rate": 0.5}},  # cache collapsed
        ], self.GATES)
        assert [(r.metric, r.name) for r in multi.regressions] == \
            [("counters.cellcache.hit_rate", "t")]

    def test_missing_metric_skips_without_masking(self):
        """A bench with no recovery/cache counters is skipped for those
        metrics only; its timing gates still run."""
        multi = compare_history(self._history() + [
            {"name": "cheap", "seconds": 0.2},
        ], self.GATES)
        assert multi.ok
        status = multi.gate_status("cheap")
        assert status["seconds"] == "ok"
        assert "counters.recovery_overhead_s" not in status  # never seen

    def test_gate_status_per_bench(self):
        multi = compare_history(self._history() + [
            {"name": "t", "seconds": 1.0, "virtual_seconds": 14.0,
             "counters": {"cellcache.hit_rate": 0.9}},
        ], self.GATES)
        status = multi.gate_status("t")
        assert status["virtual_seconds"] == "regression"
        assert status["seconds"] == "ok"
        assert multi.gate_status("nonexistent") == {}

    def test_to_dict_is_json_ready(self):
        multi = compare_history(self._history(), self.GATES)
        doc = json.dumps(multi.to_dict())
        assert '"ok": true' in doc
