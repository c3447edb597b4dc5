"""Campaign finalization: differential against the unconditional
finalizer, then what an idempotent one adds.

The first half is a differential test.  ``reference_run`` models what
a ``run_campaign`` must leave behind given what the directory held
before, and writes it with ``reference_finalize``: both files replaced
by temp + ``os.replace`` every time (``results.jsonl`` fsynced), the
index rebuilt from the files.  After every run of a sequence (cold,
warm, warm, one spec added, catalog reversed) the directory under test
must equal the reference directory: ``results.jsonl`` bytes,
``shards.jsonl`` rows, every row and the schema of ``index.sqlite``,
the listing, and the report's tallies.  ``seconds`` is wall time, so
the reference takes it from the run under test, and what is compared
is that files and index agree on it.

The second half is what a finalizer that skips equal bytes adds: a
rerun of a finished campaign leaves inodes and mtimes alone and syncs
nothing, the index is rebuilt whenever it is not strictly newer than
both files, and a damaged index is rebuilt by ``query()``.
"""

import functools
import json
import os
import re
import sqlite3
import subprocess
import sys

import pytest

from repro.campaign import (
    ClusterSpec,
    CosmologySpec,
    ResultStore,
    execute_shard,
    run_campaign,
    scenario_fingerprint_hex,
    sweep,
)
from repro.campaign.fingerprint import canonical_json

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
FILES = ["index.sqlite", "results.jsonl", "shards.jsonl"]

# Passes spec validation, fails in the Cosmology constructor: a
# deterministic ``failed`` shard, never cached.
BAD = CosmologySpec(n_side=4, omega_m=0.4, omega_l=0.7)
CATALOG = [
    *sweep(ClusterSpec(), n_nodes=[16, 32, 64]),
    ClusterSpec(n_nodes=32),
    CosmologySpec(n_side=4, a_final=0.12),
    BAD,
    ClusterSpec(n_nodes=16),
    BAD,
]
ADDED = ClusterSpec(n_nodes=128)
# A campaign that can finish: ``BAD`` is recomputed by every run, and
# its new wall time is a new ``shards.jsonl``.
GOOD = [spec for spec in CATALOG if spec != BAD]


# -- the reference ------------------------------------------------------
def reference_finalize(root: str, records: list[dict], rows: list[dict]) -> None:
    """Unconditional finalization: ``write_results``, ``write_shards``
    and ``build_index`` of the commit this test was written at."""
    results_path = os.path.join(root, "results.jsonl")
    shards_path = os.path.join(root, "shards.jsonl")
    db_path = os.path.join(root, "index.sqlite")

    tmp = f"{results_path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        for record in records:
            fh.write(canonical_json(
                {k: record[k] for k in ("fingerprint", "kind", "spec", "result")}) + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, results_path)

    tmp = f"{shards_path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    os.replace(tmp, shards_path)

    tmp = f"{db_path}.tmp.{os.getpid()}"
    if os.path.exists(tmp):
        os.remove(tmp)
    con = sqlite3.connect(tmp)
    try:
        con.execute(
            "CREATE TABLE results ("
            " fingerprint TEXT PRIMARY KEY, kind TEXT NOT NULL,"
            " spec TEXT NOT NULL, result TEXT NOT NULL)"
        )
        con.execute(
            "CREATE TABLE shards ("
            " idx INTEGER PRIMARY KEY, fingerprint TEXT NOT NULL,"
            " kind TEXT NOT NULL, status TEXT NOT NULL,"
            " seconds REAL, error TEXT)"
        )
        con.execute("CREATE INDEX results_kind ON results(kind)")
        con.executemany(
            "INSERT INTO results VALUES (?, ?, ?, ?)",
            [(r["fingerprint"], r["kind"],
              canonical_json(r["spec"]), canonical_json(r["result"]))
             for r in _read_jsonl(results_path)],
        )
        con.executemany(
            "INSERT INTO shards VALUES (?, ?, ?, ?, ?, ?)",
            [(row["index"], row["fingerprint"], row["kind"], row["status"],
              row.get("seconds"), row.get("error"))
             for row in _read_jsonl(shards_path)],
        )
        con.commit()
    finally:
        con.close()
    os.replace(tmp, db_path)


def _read_jsonl(path: str) -> list[dict]:
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        return [json.loads(line) for line in fh]


@functools.lru_cache(maxsize=None)
def _outcome(spec) -> dict:
    """What computing ``spec`` yields, minus the wall time (shared:
    read only)."""
    record = execute_shard(spec.to_dict())
    del record["seconds"]
    return record


def reference_run(catalog, root: str, seconds: list[float]) -> dict:
    """Leave in ``root`` what a run of ``catalog`` must, given what
    ``root`` held before, and return the tallies the report must show."""
    os.makedirs(root, exist_ok=True)
    prior = {r["fingerprint"] for r in _read_jsonl(os.path.join(root, "results.jsonl"))}
    fps = [scenario_fingerprint_hex(spec) for spec in catalog]
    unique: dict = {}
    for fp, spec in zip(fps, catalog):
        unique.setdefault(fp, spec)

    records, status, errors = [], {}, {}
    for fp, spec in unique.items():
        outcome = _outcome(spec)
        if "error" in outcome:
            status[fp], errors[fp] = "failed", outcome["error"]
            continue
        status[fp] = "cached" if fp in prior else "computed"
        records.append({"fingerprint": fp, **outcome})

    rows, seen = [], set()
    for index, (fp, spec) in enumerate(zip(fps, catalog)):
        row = {"index": index, "fingerprint": fp, "kind": spec.kind,
               "status": "dedupe" if fp in seen else status[fp],
               "seconds": seconds[index]}
        if fp not in seen and fp in errors:
            row["error"] = errors[fp]
        rows.append(row)
        seen.add(fp)
    reference_finalize(root, records, rows)

    by_status = [status[fp] for fp in unique]
    return {
        "total_shards": len(catalog),
        "unique": len(unique),
        "computed": by_status.count("computed"),
        "dedupe_hits": len(catalog) - len(unique),
        "cache_hits": by_status.count("cached"),
        "resume_hits": 0,
        "failed": by_status.count("failed"),
        "errors": errors,
    }


def snapshot(root: str) -> dict:
    """Everything a finished campaign directory holds."""
    with open(os.path.join(root, "results.jsonl"), "rb") as fh:
        results = fh.read()
    con = sqlite3.connect(os.path.join(root, "index.sqlite"))
    try:
        tables = {
            "results": con.execute("SELECT * FROM results").fetchall(),
            "shards": con.execute("SELECT * FROM shards").fetchall(),
            "schema": con.execute(
                "SELECT type, name, tbl_name, sql FROM sqlite_master").fetchall(),
        }
    finally:
        con.close()
    return {
        "listing": sorted(os.listdir(root)),
        "results.jsonl": results,
        "shards.jsonl": _read_jsonl(os.path.join(root, "shards.jsonl")),
        **tables,
    }


def stamps(root: str) -> dict:
    out = {}
    for name in FILES:
        st = os.stat(os.path.join(root, name))
        out[name] = (st.st_mtime_ns, st.st_ino)
    return out


# -- differential half ----------------------------------------------------
def test_every_run_of_a_sequence_matches_the_reference(tmp_path):
    under_test, reference = str(tmp_path / "t"), str(tmp_path / "ref")
    sequence = [
        ("cold", CATALOG),
        ("first warm", CATALOG),
        ("steady warm", CATALOG),
        ("one spec added", [*CATALOG, ADDED]),
        ("reversed", [*CATALOG, ADDED][::-1]),
        ("reversed again", [*CATALOG, ADDED][::-1]),
    ]
    for label, catalog in sequence:
        report = run_campaign(catalog, under_test)
        seconds = [row["seconds"] for row in _read_jsonl(
            os.path.join(under_test, "shards.jsonl"))]
        assert len(seconds) == len(catalog), label
        tallies = reference_run(catalog, reference, seconds)

        got, want = snapshot(under_test), snapshot(reference)
        assert got["listing"] == FILES, label  # no ``.tmp.*``, no ledger
        for part in want:
            assert got[part] == want[part], (label, part)
        told = report.to_dict()
        assert {key: told[key] for key in tallies} == tallies, label
        assert sorted(report.computed_fingerprints) == sorted(
            row["fingerprint"] for row in got["shards.jsonl"]
            if row["status"] == "computed"), label


def test_reference_finalize_is_what_the_store_writes(tmp_path):
    """The reference finalizer against the store's three public
    writers, so the differential above cannot drift into comparing two
    copies of one mistake."""
    records = [{"fingerprint": scenario_fingerprint_hex(spec), **_outcome(spec)}
               for spec in (ClusterSpec(n_nodes=16), ClusterSpec(n_nodes=32))]
    rows = [{"index": i, "fingerprint": r["fingerprint"], "kind": r["kind"],
             "status": "computed", "seconds": 0.5 * i} for i, r in enumerate(records)]
    rows.append({**rows[0], "index": 2, "status": "failed", "error": "ValueError: x"})
    store = ResultStore(str(tmp_path / "t"))
    store.write_results(records)
    store.write_shards(rows)
    store.build_index()
    os.makedirs(tmp_path / "ref")
    reference_finalize(str(tmp_path / "ref"), records, rows)
    assert snapshot(store.root) == snapshot(str(tmp_path / "ref"))


# -- what skipping equal bytes adds -------------------------------------
def test_rerun_of_a_finished_campaign_writes_nothing(tmp_path, monkeypatch):
    root = str(tmp_path / "t")
    run_campaign(GOOD, root)
    run_campaign(GOOD, root)  # ``computed`` -> ``cached``: the last change
    synced = []
    monkeypatch.setattr(os, "fsync", synced.append)
    before = stamps(root)
    for _ in range(2):
        report = run_campaign(GOOD, root)
        assert report.cache_hits == report.unique == 4
        assert stamps(root) == before
    assert synced == []


def test_results_are_synced_whenever_they_are_written(tmp_path, monkeypatch):
    root = str(tmp_path / "t")
    synced = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd)))
    run_campaign(GOOD, root)
    assert len(synced) == 1
    run_campaign([*GOOD, ADDED], root)
    assert len(synced) == 2


class TestStaleIndex:
    """The index is rebuilt unless strictly newer than both files."""

    @staticmethod
    def _crash_before_the_index(monkeypatch, catalog, root):
        """Both files replaced, then the coordinator dies."""
        def crash(*args, **kwargs):
            raise KeyboardInterrupt("killed before the index was written")

        with monkeypatch.context() as patch:
            patch.setattr(sqlite3, "connect", crash)
            with pytest.raises(KeyboardInterrupt):
                run_campaign(catalog, root)

    def test_rerun_after_a_crash_indexes_the_new_shards(self, tmp_path, monkeypatch):
        root = str(tmp_path / "t")
        run_campaign(GOOD, root)
        self._crash_before_the_index(monkeypatch, GOOD, root)
        assert "computed" in {row[3] for row in snapshot(root)["shards"]}
        run_campaign(GOOD, root)  # same bytes in both files: only staleness tells
        snap = snapshot(root)
        assert [row[3] for row in snap["shards"]] == [
            row["status"] for row in snap["shards.jsonl"]]
        assert "computed" not in {row["status"] for row in snap["shards.jsonl"]}

    def test_query_after_a_crash_sees_the_new_results(self, tmp_path, monkeypatch):
        root = str(tmp_path / "t")
        run_campaign(GOOD, root)
        self._crash_before_the_index(monkeypatch, [*GOOD, ADDED], root)
        assert len(snapshot(root)["results"]) == 4
        assert len(ResultStore(root).query()) == 5
        run_campaign([*GOOD, ADDED], root)
        assert len(snapshot(root)["results"]) == 5

    @pytest.mark.parametrize("name", ["results.jsonl", "shards.jsonl"])
    def test_a_timestamp_tie_is_stale(self, tmp_path, name):
        root = str(tmp_path / "t")
        run_campaign(GOOD, root)
        store = ResultStore(root)
        tick = os.stat(os.path.join(root, name)).st_mtime_ns + 10**9
        os.utime(os.path.join(root, name), ns=(tick, tick))
        os.utime(store.db_path, ns=(tick, tick))
        before = stamps(root)
        store.query()
        after = stamps(root)
        assert after["index.sqlite"] != before["index.sqlite"]
        assert after[name] == before[name]


class TestDamagedIndex:
    """``index.sqlite`` is disposable: ``query()`` rebuilds a damaged
    one from the JSONL files, once, and a no-op rerun need not."""

    DAMAGES = {
        "truncated": lambda data: data[: len(data) // 2],
        "garbage": lambda data: b"not a database " * 64,
        "zero_length": lambda data: b"",
    }

    @pytest.fixture()
    def store(self, tmp_path):
        run_campaign(GOOD, str(tmp_path / "t"))
        run_campaign(GOOD, str(tmp_path / "t"))
        return ResultStore(str(tmp_path / "t"))

    def _damage(self, store, how: str) -> None:
        with open(store.db_path, "rb") as fh:
            data = fh.read()
        with open(store.db_path, "wb") as fh:
            fh.write(self.DAMAGES[how](data))
        later = os.stat(store.shards_path).st_mtime_ns + 10**9
        os.utime(store.db_path, ns=(later, later))  # damaged, not stale

    @pytest.mark.parametrize("how", DAMAGES)
    def test_query_rebuilds_it(self, store, how):
        healthy = store.query()
        assert len(healthy) == 4
        self._damage(store, how)
        assert store.query() == healthy
        assert store.query(kind="cosmology", limit=1) == [
            row for row in healthy if row["kind"] == "cosmology"]

    @pytest.mark.parametrize("how", DAMAGES)
    def test_cli_query_rebuilds_it(self, store, how):
        self._damage(store, how)
        env = dict(os.environ,
                   PYTHONPATH=REPO_SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        out = subprocess.run(
            [sys.executable, "-m", "repro.campaign", "query", store.root, "--kind", "cluster"],
            env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert len(out.stdout.splitlines()) == 3

    @pytest.mark.parametrize("how", DAMAGES)
    def test_rerun_then_query(self, store, how):
        self._damage(store, how)
        report = run_campaign(GOOD, store.root)
        assert report.cache_hits == 4
        assert len(store.query()) == 4

    def test_damaged_jsonl_under_a_damaged_index_is_named(self, store):
        self._damage(store, "garbage")
        with open(store.results_path, "r+") as fh:
            fh.write("{not json")
        with pytest.raises(ValueError, match=re.escape(f"{store.results_path}:1:")):
            store.query()
