"""Tests for repro.obs.fleet: the bench-suite registry and fleet runner.

The real suite's contract is pinned (every ``benchmarks/bench_*.py``
registers a tagged ``BENCH = Bench(...)``); everything behavioral
runs against a tiny fixture suite in ``tmp_path`` — synthetic bench
modules next to a copy of the real ``_harness.py``/``schema.json`` —
so the tests exercise registry refusal, workers that write nothing,
dedupe/cache/failed ledger statuses, and the SIGKILL
crash drill without paying for real workloads.
"""

import json
import os
import re
import shutil

import pytest

from repro.campaign.fingerprint import scenario_fingerprint_hex
from repro.campaign.spec import SPEC_KINDS, BenchSpec, spec_from_dict
from repro.obs.fleet import (
    BENCH_ROOT_ENV,
    FleetError,
    build_registry,
    default_bench_dir,
    fleet_id,
    load_fleet,
    run_bench_scenario,
    run_fleet,
)
from repro.obs.history import load_history
from repro.obs.schemacheck import validate_jsonl_lines

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REAL_BENCH_DIR = os.path.join(REPO_ROOT, "benchmarks")

_BENCH_TEMPLATE = '''\
from _harness import Bench


def build(n):
    print("{name} stdout chatter")
{fail_line}
    return {{"x": {value}}}


BENCH = Bench(
    ("fixture",), build, lambda out: None,
    sizes={{"n": 2}}, smoke={smoke},
    counters=lambda out: {{
        "x": out["x"],
        "cellcache.hit_rate": 0.9,
        "wait.late-sender_s": 1.5,
        "wait.transfer_s": 0.5,
    }},
    virtual_seconds={value},
)
'''


def _write_bench(bench_dir, name, *, reduced=False, fail=False, value=2.0):
    fail_line = (
        '    raise RuntimeError("fixture bench exploded")' if fail else "    pass"
    )
    source = _BENCH_TEMPLATE.format(
        name=name, smoke='{"n": 1}' if reduced else None, fail_line=fail_line, value=value,
    )
    with open(os.path.join(bench_dir, f"bench_{name}.py"), "w") as fh:
        fh.write(source)


def _validate_ledger(path):
    schema_path = os.path.join(REAL_BENCH_DIR, "schema.json")
    with open(schema_path) as fh:
        schema = json.load(fh)
    with open(path) as fh:
        return validate_jsonl_lines(fh, schema)


class TestRealSuiteRegistry:
    """The committed suite must satisfy the fleet contract."""

    def test_registry_covers_every_bench_file(self, monkeypatch):
        monkeypatch.delenv(BENCH_ROOT_ENV, raising=False)
        registry = build_registry()
        files = {
            f[len("bench_"):-len(".py")]
            for f in os.listdir(REAL_BENCH_DIR)
            if f.startswith("bench_") and f.endswith(".py")
        }
        assert set(registry) == files
        assert len(registry) == 28
        for entry in registry.values():
            assert entry.bench.tags, f"{entry.name} has no tags"
            assert os.path.isfile(entry.path)

    def test_reduced_benches_emit_distinct_smoke_records(self, monkeypatch):
        monkeypatch.delenv(BENCH_ROOT_ENV, raising=False)
        registry = build_registry()
        reduced = {n for n, e in registry.items() if e.bench.smoke is not None}
        # The known heavyweights must stay reduced (full mode takes
        # minutes); their smoke records are renamed to protect the
        # full-mode rolling baselines.
        assert {"fig7_cosmology", "fig8_supernova", "scale_ranks"} <= reduced
        for name, entry in registry.items():
            smoke_name = f"{name}_smoke" if name in reduced else name
            assert entry.bench.record_name(name, smoke=True) == smoke_name
            assert entry.bench.record_name(name, smoke=False) == name

    def test_env_var_overrides_default_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv(BENCH_ROOT_ENV, str(tmp_path))
        assert default_bench_dir() == str(tmp_path)
        monkeypatch.delenv(BENCH_ROOT_ENV)
        assert default_bench_dir() == REAL_BENCH_DIR


class TestRegistryRefusal:
    def test_one_error_names_every_offender(self, suite):
        _write_bench(suite, "good")
        offenders = {
            "bench_nobench.py": "def build():\n    return {}\n",
            "bench_notabench.py": 'BENCH = {"tags": ("x",), "smoke": "full"}\n',
            "bench_notags.py": (
                "from _harness import Bench\n"
                "BENCH = Bench((), lambda: 1, lambda out: None)\n"
            ),
            "bench_brokenimport.py": 'raise ImportError("nope")\n',
        }
        for filename, source in offenders.items():
            with open(os.path.join(suite, filename), "w") as fh:
                fh.write(source)
        with pytest.raises(FleetError) as exc:
            build_registry(suite)
        msg = str(exc.value)
        assert f"{len(offenders)} bench(es)" in msg
        for filename in offenders:
            assert filename in msg
        assert "bench_good.py" not in msg

    def test_empty_and_missing_dirs_fail(self, tmp_path):
        with pytest.raises(FleetError, match="no bench_"):
            build_registry(str(tmp_path))
        with pytest.raises(FleetError, match="not found"):
            build_registry(str(tmp_path / "nope"))


class TestBenchSpec:
    def test_registered_and_roundtrips(self):
        assert SPEC_KINDS["bench"] is BenchSpec
        spec = BenchSpec(bench="fig7_cosmology", smoke=True)
        d = spec.to_dict()
        assert d["kind"] == "bench"
        assert spec_from_dict(d) == spec
        assert spec_from_dict(d) is not spec

    def test_fingerprint_distinguishes_bench_and_mode(self):
        a = scenario_fingerprint_hex(BenchSpec(bench="alpha", smoke=True))
        assert a == scenario_fingerprint_hex(BenchSpec(bench="alpha", smoke=True))
        assert a != scenario_fingerprint_hex(BenchSpec(bench="beta", smoke=True))
        assert a != scenario_fingerprint_hex(BenchSpec(bench="alpha", smoke=False))

    def test_rejects_non_stem_names(self):
        for bad in ("", "Fig7", "a b", "../etc", "bench.py"):
            with pytest.raises(ValueError):
                BenchSpec(bench=bad)


class TestFleetId:
    def test_deterministic_and_mode_sensitive(self):
        catalog = [BenchSpec(bench="alpha"), BenchSpec(bench="beta")]
        fid = fleet_id(catalog, True)
        assert re.fullmatch(r"[0-9a-f]{32}", fid)
        assert fid == fleet_id(list(catalog), True)
        assert fid != fleet_id(catalog, False)
        assert fid != fleet_id(catalog[:1], True)
        assert fid != fleet_id(catalog[::-1], True)

    def test_accepts_spec_dicts(self):
        catalog = [BenchSpec(bench="alpha")]
        assert fleet_id([catalog[0].to_dict()], True) == fleet_id(catalog, True)


class TestRunBenchScenario:
    def test_suppresses_side_channels_and_stdout(
        self, suite, tmp_path, monkeypatch, capsys
    ):
        _write_bench(suite, "alpha")
        monkeypatch.setenv(BENCH_ROOT_ENV, suite)
        hist = tmp_path / "h.jsonl"
        emit_dir = tmp_path / "emit"
        monkeypatch.setenv("REPRO_BENCH_HISTORY", str(hist))
        monkeypatch.setenv("REPRO_BENCH_DIR", str(emit_dir))
        record = run_bench_scenario({"bench": "alpha", "smoke": True})
        assert record["name"] == "alpha"
        assert record["params"] == {"n": 2}
        # The worker must not write records (single-writer rule) ...
        assert not hist.exists()
        assert not emit_dir.exists()
        # ... and must not leak bench chatter to the coordinator's stdout.
        assert "stdout chatter" not in capsys.readouterr().out
        # The environment is restored for the rest of the process.
        assert os.environ["REPRO_BENCH_HISTORY"] == str(hist)
        assert os.environ["REPRO_BENCH_DIR"] == str(emit_dir)

    def test_same_stem_in_two_directories(self, suite, tmp_path, monkeypatch):
        # One process, two suites that both hold bench_alpha.py: each
        # directory must get its own file, not the first one's module.
        other = str(tmp_path / "other")
        shutil.copytree(suite, other)
        _write_bench(suite, "alpha", value=2.0)
        _write_bench(other, "alpha", reduced=True, value=5.0)
        assert build_registry(suite)["alpha"].bench.smoke is None
        assert build_registry(other)["alpha"].bench.smoke == {"n": 1}
        monkeypatch.setenv(BENCH_ROOT_ENV, other)
        record = run_bench_scenario({"bench": "alpha", "smoke": True})
        assert (record["name"], record["virtual_seconds"]) == ("alpha_smoke", 5.0)
        monkeypatch.setenv(BENCH_ROOT_ENV, suite)
        record = run_bench_scenario({"bench": "alpha", "smoke": True})
        assert (record["name"], record["virtual_seconds"]) == ("alpha", 2.0)

    def test_non_bench_declaration_is_an_error(self, suite, monkeypatch):
        with open(os.path.join(suite, "bench_badret.py"), "w") as fh:
            fh.write("BENCH = 42\n")
        monkeypatch.setenv(BENCH_ROOT_ENV, suite)
        with pytest.raises(FleetError, match=r"bench_badret.py: BENCH is not a Bench \(got int\)"):
            run_bench_scenario({"bench": "badret", "smoke": True})


class TestRunFleet:
    def test_fixture_fleet_end_to_end(self, suite, tmp_path):
        _write_bench(suite, "alpha")
        _write_bench(suite, "beta", reduced=True, value=3.0)
        hist = tmp_path / "hist.jsonl"
        run = run_fleet(
            out_dir=str(tmp_path / "out"), bench_dir=suite, history=str(hist),
        )
        assert run.mode == "smoke"
        assert run.ok and len(run.rows) == 2
        assert run.status_counts == {"computed": 2}
        # Reduced benches emit under their _smoke record name.
        assert [r["name"] for r in run.rows] == ["alpha", "beta_smoke"]
        for row in run.rows:
            stamp = row["fleet"]
            assert stamp["id"] == run.fleet_id
            assert re.fullmatch(r"[0-9a-f]{32}", stamp["id"])
            assert stamp["mode"] == "smoke"
            assert stamp["tags"] == ["fixture"]
            assert stamp["shard_seconds"] >= 0.0
        # The ledger round-trips and is strictly schema-valid.
        assert load_fleet(run.ledger_path) == run.rows
        assert _validate_ledger(run.ledger_path) == []
        # The coordinator appended both computed records to history.
        entries = load_history(str(hist))
        assert [e["name"] for e in entries] == ["alpha", "beta_smoke"]
        assert all("ts" in e for e in entries)
        # The bench-root env override did not leak out of run_fleet.
        assert BENCH_ROOT_ENV not in os.environ

    def test_rerun_is_all_cache_hits(self, suite, tmp_path):
        _write_bench(suite, "alpha")
        _write_bench(suite, "beta")
        hist = tmp_path / "hist.jsonl"
        out = str(tmp_path / "out")
        run_fleet(out_dir=out, bench_dir=suite, history=str(hist))
        again = run_fleet(out_dir=out, bench_dir=suite, history=str(hist))
        assert again.status_counts == {"cached": 2}
        assert again.ok
        assert again.campaign.cache_hits == 2
        assert again.campaign.computed == 0
        # Cache hits are old news: history must not grow.
        assert len(load_history(str(hist))) == 2

    def test_duplicate_selection_dedupes(self, suite, tmp_path):
        _write_bench(suite, "alpha")
        run = run_fleet(
            ["alpha", "alpha"], out_dir=str(tmp_path / "out"), bench_dir=suite,
        )
        assert len(run.rows) == 2
        assert run.status_counts == {"computed": 1, "dedupe": 1}
        # Both rows carry the full record — dedupe is invisible in the data.
        assert run.rows[0]["counters"] == run.rows[1]["counters"]

    def test_failed_bench_becomes_schema_valid_row(self, suite, tmp_path):
        _write_bench(suite, "alpha")
        _write_bench(suite, "broken", fail=True)
        hist = tmp_path / "hist.jsonl"
        run = run_fleet(
            out_dir=str(tmp_path / "out"), bench_dir=suite, history=str(hist),
        )
        assert not run.ok
        assert run.status_counts == {"computed": 1, "failed": 1}
        (row,) = run.failed
        assert row["fleet"]["bench"] == "broken"
        assert "exploded" in row["fleet"]["error"]
        assert row["notes"].startswith("FAILED:")
        # Failed rows are still strictly schema-valid ledger lines ...
        assert _validate_ledger(run.ledger_path) == []
        assert len(load_fleet(run.ledger_path)) == 2
        # ... but never join the longitudinal baseline.
        assert [e["name"] for e in load_history(str(hist))] == ["alpha"]

    def test_unknown_bench_fails_fast(self, suite, tmp_path):
        _write_bench(suite, "alpha")
        with pytest.raises(FleetError, match="unknown bench"):
            run_fleet(["nope"], out_dir=str(tmp_path / "out"), bench_dir=suite)


class TestLoadFleet:
    def test_forgiving_reader(self, suite, tmp_path):
        good = {"name": "a", "seconds": 1.0, "fleet": {"bench": "a"}}
        path = tmp_path / "fleet.jsonl"
        path.write_text(
            "\n"                                   # blank
            "{not json\n"                          # corrupt
            '{"name": "x", "seconds": 1.0}\n'      # no fleet stamp
            + json.dumps(good) + "\n"
        )
        assert load_fleet(str(path)) == [good]


@pytest.mark.slow
class TestFleetSigkillResume:
    """ISSUE 8 acceptance: a fleet killed mid-run resumes from its
    committed shards — zero recompute, complete ledger."""

    N_BENCHES = 12

    def test_killed_fleet_resumes_without_recompute(self, suite, tmp_path, sigkill_mid_campaign):
        names = [f"s{i:02d}" for i in range(self.N_BENCHES)]
        for i, name in enumerate(names):
            _write_bench(suite, name, value=1.0 + i)
        out = tmp_path / "out"
        survivors = sigkill_mid_campaign(
            ["repro.obs", "fleet", "--out", str(out), "--bench-dir", suite,
             "--workers", "2", "--throttle", "0.3"], out / "campaign")
        assert 3 <= len(survivors) < self.N_BENCHES, "kill landed mid-fleet"

        run = run_fleet(out_dir=str(out), bench_dir=suite, workers=1)
        report = run.campaign
        assert set(report.computed_fingerprints) & survivors == set()
        assert report.resume_hits == len(survivors)
        assert report.computed == self.N_BENCHES - len(survivors)
        assert report.failed == 0

        assert run.ok and len(run.rows) == self.N_BENCHES
        statuses = {r["fleet"]["bench"]: r["fleet"]["status"] for r in run.rows}
        assert set(statuses) == set(names)
        assert set(statuses.values()) <= {"computed", "resumed"}
        assert _validate_ledger(run.ledger_path) == []
