"""Contract tests for the uniform benchmark records.

Every ``benchmarks/bench_*.py`` must expose ``main() -> dict`` built on
``benchmarks/_harness.py``, and the record it returns must validate
against ``benchmarks/schema.json``.  The cheap shape checks (module
exposes a callable ``main``, the schema file itself is well-formed, the
subset validator works, history appends are atomic) run in the default
suite; actually executing all 28 payloads (in the smoke
parameterization the fleet registry declares) is marked slow.
"""

import importlib.util
import json
import os
import sys

import pytest

from repro.obs.fleet import build_registry

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks")
BENCH_FILES = sorted(
    f for f in os.listdir(BENCH_DIR) if f.startswith("bench_") and f.endswith(".py")
)


def _load(filename):
    if BENCH_DIR not in sys.path:
        sys.path.insert(0, BENCH_DIR)
    name = f"_bench_records_{filename[:-3]}"
    spec = importlib.util.spec_from_file_location(name, os.path.join(BENCH_DIR, filename))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def harness():
    if BENCH_DIR not in sys.path:
        sys.path.insert(0, BENCH_DIR)
    import _harness

    return _harness


@pytest.fixture(scope="module")
def registry():
    return build_registry(BENCH_DIR)


def test_bench_files_found():
    assert len(BENCH_FILES) == 28


@pytest.mark.parametrize("filename", BENCH_FILES)
def test_exposes_main(filename):
    mod = _load(filename)
    assert callable(getattr(mod, "main", None)), f"{filename} has no main()"


class TestSchema:
    def test_schema_file_is_valid_json(self, harness):
        schema = harness.load_schema()
        assert schema["type"] == "object"
        assert schema["additionalProperties"] is False
        assert set(schema["required"]) <= set(schema["properties"])
        # Optional fields: "shards" (campaign benches attach the
        # breakdown), "ts" (append_history timestamps history lines),
        # "fleet" (the fleet runner stamps ledger lines).  Scalar bench
        # records keep the original required-only shape.
        assert set(schema["properties"]) - set(schema["required"]) == {"shards", "ts", "fleet"}

    def test_good_record_validates(self, harness):
        record = harness.bench_record(
            "unit_test", params={"n": 1}, seconds=0.5,
            virtual_seconds=2.0, counters={"x": 3},
        )
        assert harness.validate_record(record) == []

    @pytest.mark.parametrize("mutate,fragment", [
        (lambda r: r.pop("name"), "missing required"),
        (lambda r: r.update(name="Bad Name!"), "pattern"),
        (lambda r: r.update(seconds=-1.0), "minimum"),
        (lambda r: r.update(seconds="fast"), "expected type"),
        (lambda r: r.update(counters={"x": "lots"}), "expected type"),
        (lambda r: r.update(extra_field=1), "unexpected property"),
        (lambda r: r.update(schema_version=True), "expected type"),
    ])
    def test_bad_records_rejected(self, harness, mutate, fragment):
        record = harness.bench_record("unit_test", seconds=0.1)
        mutate(record)
        errors = harness.validate_record(record)
        assert errors and any(fragment in e for e in errors), errors

    def test_record_with_shards_validates(self, harness):
        record = harness.bench_record(
            "unit_test", seconds=0.1,
            shards=[
                {"fingerprint": "ab" * 16, "status": "computed",
                 "kind": "cluster", "seconds": 0.25},
                {"fingerprint": "cd" * 16, "status": "dedupe",
                 "kind": "cosmology"},  # per-shard seconds is optional
            ],
        )
        assert harness.validate_record(record) == []

    def test_record_without_shards_has_no_shards_key(self, harness):
        assert "shards" not in harness.bench_record("unit_test", seconds=0.1)

    @pytest.mark.parametrize("shard,fragment", [
        ({"fingerprint": "xyz", "status": "computed", "kind": "cluster"}, "pattern"),
        ({"fingerprint": "ab" * 16, "status": "teleported", "kind": "cluster"}, "pattern"),
        ({"fingerprint": "ab" * 16, "status": "computed", "kind": "cluster",
          "seconds": -1.0}, "minimum"),
        ({"fingerprint": "ab" * 16, "status": "computed"}, "missing required"),
        ({"fingerprint": "ab" * 16, "status": "computed", "kind": "cluster",
          "surprise": 1}, "unexpected property"),
        ("not-a-shard", "expected type"),
    ])
    def test_bad_shards_rejected_with_indexed_path(self, harness, shard, fragment):
        record = harness.bench_record(
            "unit_test", seconds=0.1,
            shards=[{"fingerprint": "ab" * 16, "status": "computed",
                     "kind": "cluster"}],
        )
        record["shards"].append(shard)
        errors = harness.validate_record(record)
        assert errors and any(fragment in e for e in errors), errors
        # The items check names the offending element, not just the list.
        assert any("shards[1]" in e for e in errors), errors

    def test_emit_writes_file(self, harness, tmp_path):
        record = harness.bench_record("unit_test", seconds=0.1)
        path = harness.emit(record, str(tmp_path))
        assert os.path.basename(path) == "BENCH_unit_test.json"
        with open(path) as fh:
            assert json.load(fh) == record

    def test_emit_noop_without_dir(self, harness, tmp_path, monkeypatch):
        # No ambient destination: the directory is a required argument.
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path / "ambient"))
        with pytest.raises(TypeError):
            harness.emit(harness.bench_record("unit_test", seconds=0.1))
        assert not (tmp_path / "ambient").exists()


class TestAppendHistoryAtomicity:
    """The history append must be all-or-nothing: a bench run killed
    mid-write can never leave ``baseline.jsonl`` truncated or torn."""

    def _lines(self, path):
        with open(path) as fh:
            return [json.loads(line) for line in fh if line.strip()]

    def test_append_preserves_existing_and_timestamps(self, harness, tmp_path):
        path = str(tmp_path / "history.jsonl")
        harness.append_history(harness.bench_record("one", seconds=0.1), path)
        harness.append_history(harness.bench_record("two", seconds=0.2), path)
        lines = self._lines(path)
        assert [r["name"] for r in lines] == ["one", "two"]
        assert all("ts" in r for r in lines)

    def test_goes_through_temp_file_and_replace(self, harness, tmp_path, monkeypatch):
        path = str(tmp_path / "history.jsonl")
        harness.append_history(harness.bench_record("one", seconds=0.1), path)
        before = open(path).read()

        real_replace = os.replace
        seen = {}

        def spying_replace(src, dst):
            seen["src"], seen["dst"] = src, dst
            with open(src) as fh:
                seen["tmp_content"] = fh.read()
            real_replace(src, dst)

        monkeypatch.setattr(harness.os, "replace", spying_replace)
        harness.append_history(harness.bench_record("two", seconds=0.2), path)
        # The temp file already held old + new before the swap, so the
        # reader can never observe a half-written state.
        assert seen["dst"] == path and seen["src"] != path
        assert seen["tmp_content"].startswith(before)
        assert [r["name"] for r in self._lines(path)] == ["one", "two"]

    def test_failed_replace_leaves_original_intact(self, harness, tmp_path, monkeypatch):
        path = str(tmp_path / "history.jsonl")
        harness.append_history(harness.bench_record("one", seconds=0.1), path)
        before = open(path).read()

        def exploding_replace(src, dst):
            raise OSError("disk on fire")

        monkeypatch.setattr(harness.os, "replace", exploding_replace)
        with pytest.raises(OSError):
            harness.append_history(harness.bench_record("two", seconds=0.2), path)
        monkeypatch.undo()
        assert open(path).read() == before  # untouched
        assert not [f for f in os.listdir(tmp_path) if ".tmp." in f]  # cleaned up

    def test_heals_pre_atomic_torn_tail(self, harness, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text('{"name": "old", "ts": "t"}\n{"name": "torn", "half')
        harness.append_history(harness.bench_record("new", seconds=0.1), str(path))
        raw = path.read_text().splitlines()
        assert len(raw) == 3 and json.loads(raw[-1])["name"] == "new"
        # The torn line is quarantined on its own line, not fused with
        # the new record; load_history skips it as corrupt.
        with pytest.raises(json.JSONDecodeError):
            json.loads(raw[1])

    def test_noop_without_destination(self, harness, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_HISTORY", str(tmp_path / "ambient.jsonl"))
        with pytest.raises(TypeError):
            harness.append_history(harness.bench_record("x", seconds=0.1))
        assert not (tmp_path / "ambient.jsonl").exists()

    def test_directory_destination_gets_history_file(self, harness, tmp_path):
        out = harness.append_history(
            harness.bench_record("x", seconds=0.1), str(tmp_path),
        )
        assert out == str(tmp_path / "history.jsonl")
        assert os.path.exists(out)


@pytest.mark.slow
@pytest.mark.parametrize("filename", BENCH_FILES)
def test_main_record_validates(filename, harness, registry, capsys):
    # The parameterization the registry declares for CI; the "reduced"
    # benches keep their full payload behind `fleet --full`.
    entry = registry[filename[len("bench_"):-len(".py")]]
    record = _load(filename).main(smoke=True)
    capsys.readouterr()  # swallow the CLI print
    assert harness.validate_record(record) == [], filename
    assert record["name"] == entry.smoke_record_name
    assert record["seconds"] > 0
