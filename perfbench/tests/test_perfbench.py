"""The benchmark's own tests: tiny sizes, under 30 s.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import copy
import json
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from perfbench import REPO_ROOT, WORK_ROOT, ensure_repro, load_contract

ensure_repro()

from perfbench import harness  # noqa: E402
from perfbench.compare import compare_files, compare_records  # noqa: E402
from perfbench.layers import TimingBackend  # noqa: E402
from perfbench.workloads import WORKLOADS, direct_sample, sphere  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}


def _tree(root):
    found = set()
    for base, dirs, files in os.walk(root):
        dirs[:] = [d for d in dirs if d not in SKIP_DIRS]
        found.update(os.path.join(base, name) for name in files + dirs)
    return found


@pytest.fixture(scope="module")
def contract():
    return load_contract()


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """One real command-line run of two workloads, both modes, into --out."""
    out = tmp_path_factory.mktemp("perfbench") / "run.json"
    before = _tree(REPO_ROOT)
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "--smoke", "--repeats", "2", "--seed", "5",
         "--workload", "campaign_io", "--workload", "serial_tree", "--out", str(out)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return {"out": out, "stdout": done.stdout, "new_files": _tree(REPO_ROOT) - before}


def test_contract_is_within_the_limits(contract):
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert contract["paths"] == ["perfbench"]
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    assert 1 <= contract["run_seconds"] <= 60
    names = [m["name"] for k in ("workloads", "end_to_end", "per_layer") for m in contract[k]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for w in contract["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in contract["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 <= m["bound"] <= 0.25
    for m in contract["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert set(WORKLOADS) == {w["name"] for w in contract["workloads"]}


def test_every_emitted_name_is_declared_and_every_declared_name_emitted(contract, monkeypatch):
    monkeypatch.setattr(harness, "SETUP_SAMPLES", 1)  # the child path runs in full_run
    measured_layers = set()
    for name in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            detail = harness.run_workload(name, 1, 0.0, 1, trace, True, time.perf_counter())
            declared = {m["name"]: m["unit"] for m in contract[key]}
            assert {k: v["unit"] for k, v in detail["metrics"].items()} == declared
            assert all(NAME.fullmatch(k) for k in detail["metrics"])
            assert all(np.isfinite(v["value"]) for v in detail["metrics"].values())
            assert detail["correct"] and detail["failed"] == 0 and detail["attempted"] >= 1
            line = json.loads(harness.result_line(detail))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            if trace:
                measured_layers.update(detail["measured"])
                assert detail["spans"] and all(
                    s["end"] >= s["start"] for s in detail["spans"])
            else:
                assert set(detail["measured"]) == set(declared)
                assert all(v["value"] > 0 for v in detail["metrics"].values())
    assert measured_layers == {m["name"] for m in contract["per_layer"]}
    assert not os.path.exists(WORK_ROOT)


def _flat(inputs):
    if isinstance(inputs, np.ndarray):
        return inputs.tolist()
    if isinstance(inputs, (tuple, list)):
        return [_flat(i) for i in inputs]
    return inputs.to_dict() if hasattr(inputs, "to_dict") else inputs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_come_from_the_seed(name):
    workload = harness.make_workload(name, smoke=True)
    assert _flat(workload.inputs(1)) == _flat(workload.inputs(1))
    assert _flat(workload.inputs(1)) != _flat(workload.inputs(2))


@pytest.mark.parametrize("name", ["serial_tree", "nbody_compute", "pipeline_e2e"])
def test_timing_backend_leaves_results_bit_identical(name):
    workload = harness.make_workload(name, smoke=True)
    inputs = workload.inputs(3)
    proxy = TimingBackend()
    plain, timed = workload.run(inputs, None), workload.run(inputs, None, backend=proxy)
    tally = harness.Tally()
    assert workload.check(tally, inputs, plain) == workload.check(tally, inputs, timed)
    if name == "pipeline_e2e":
        assert plain.to_dict() == timed.to_dict()
    else:
        assert np.array_equal(plain.accelerations, timed.accelerations)
    assert proxy.total_calls > 0 and proxy.kernel_s > 0


def test_direct_oracle_agrees_with_direct_accelerations():
    from repro.core import direct_accelerations

    pos, masses = sphere(300, 9)
    sinks = np.arange(0, 300, 7)
    exact = direct_accelerations(pos, masses, eps=0.02).accelerations[sinks]
    assert np.allclose(direct_sample(pos, masses, sinks, 0.02), exact, rtol=1e-12, atol=0)


def test_full_run_prints_and_records_every_metric(full_run, contract):
    record = json.loads(full_run["out"].read_text())
    assert {"git_revision", "nproc", "python", "numpy", "seed"} <= set(record)
    assert list(record["workloads"]) == ["campaign_io", "serial_tree"]  # the order given
    for name, entry in record["workloads"].items():
        assert entry["end_to_end"]["sizes"] == harness.make_workload(name, True).sizes
        assert len(entry["end_to_end"]["samples"]["wall_s"]) == 2
        assert len(entry["end_to_end"]["samples"]["setup_s"]) == harness.SETUP_SAMPLES
        assert entry["per_layer"]["metrics"]["host.calib_s"]["value"] > 0
        assert all({"name", "start", "end", "parent"} == set(s)
                   for s in entry["per_layer"]["spans"])
    for metric in contract["end_to_end"]:
        assert f"  {metric['name']} " in full_run["stdout"]
    assert "campaign.store_s" in full_run["stdout"]
    assert "core.traversal.lists_s" in full_run["stdout"]


def test_a_run_writes_only_its_out_file(full_run):
    assert full_run["new_files"] == set()
    assert not os.path.exists(WORK_ROOT)


def test_compare_with_itself_is_all_same_and_flags_a_regression(full_run, contract, tmp_path):
    record = json.loads(full_run["out"].read_text())
    # Two tiny timed operations can differ by more than the bound, and
    # overlapping noisy samples are "unresolved"; steady ones are not.
    for entry in record["workloads"].values():
        e2e = entry["end_to_end"]
        for metric, sample in e2e["samples"].items():
            e2e["samples"][metric] = [e2e["metrics"][metric]["value"]] * len(sample)
    rows, regressed = compare_records(record, record, contract)
    assert not regressed and {r["verdict"] for r in rows} == {"same"}
    assert any(r["metric"] == "core.traversal.force_rel_err_p50" for r in rows)

    bound = next(m["bound"] for m in contract["end_to_end"] if m["name"] == "wall_s")

    def slowed(factor):
        changed = copy.deepcopy(record)
        e2e = changed["workloads"]["serial_tree"]["end_to_end"]
        e2e["metrics"]["wall_s"]["value"] *= factor
        e2e["samples"]["wall_s"] = [factor * s for s in e2e["samples"]["wall_s"]]
        return changed

    slower = slowed(1 + 1.2 * bound)
    rows, regressed = compare_records(record, slower, contract)
    worse = [(r["workload"], r["metric"]) for r in rows if r["verdict"] == "worse"]
    assert regressed and worse == [("serial_tree", "wall_s")]
    assert not compare_records(record, slowed(1 + 0.8 * bound), contract)[1]

    failing = copy.deepcopy(record)
    failing["workloads"]["campaign_io"]["end_to_end"]["failed"] = 1
    assert compare_records(record, failing, contract)[1]

    path = tmp_path / "slower.json"
    path.write_text(json.dumps(slower))
    steady = tmp_path / "steady.json"
    steady.write_text(json.dumps(record))
    with open(os.devnull, "w") as sink:
        assert compare_files(str(steady), str(steady), sink) == 0
        assert compare_files(str(steady), str(path), sink) == 1


def test_overlapping_noisy_samples_are_unresolved():
    from perfbench.compare import verdict

    noisy_a, noisy_b = [1.0, 1.3, 1.6, 1.9], [1.1, 1.5, 1.8, 2.2]
    assert verdict(1.3, 1.5, "lower", 0.10, noisy_a, noisy_b)[0] == "unresolved"
    assert verdict(1.0, 2.0, "lower", 0.10, [1.0, 1.01], [2.0, 2.01])[0] == "worse"
    assert verdict(10.0, 12.0, "higher", 0.10)[0] == "better"


def test_without_the_program_there_is_no_result(tmp_path):
    """In a directory holding only the benchmark, the command fails cleanly."""
    import shutil

    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(REPO_ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "--workload", "serial_tree", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
