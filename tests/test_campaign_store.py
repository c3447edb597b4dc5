"""Unit tests for the campaign result store, obs wiring, and failure
handling: the queryable-store contract (JSONL truth, sqlite
accelerator), dedupe tallies and the wall spans of a profiled run, and
deterministic-failure shards becoming data instead of crashes.
"""

import json
import os
import re

import numpy as np
import pytest

from repro.campaign import (
    SHARD_STATUSES,
    ClusterSpec,
    CosmologySpec,
    ResultStore,
    load_catalog,
    run_campaign,
    scenario_fingerprint_hex,
    save_catalog,
    spec_from_dict,
    sweep,
)
from repro.obs import wallclock


class TestObsCounters:
    def test_duplicate_specs_report_dedupe_hits(self, tmp_path):
        """Acceptance: duplicate catalog entries → dedupe hits > 0."""
        catalog = [ClusterSpec(n_nodes=64), ClusterSpec(n_nodes=64),
                   ClusterSpec(n_nodes=64), ClusterSpec(n_nodes=128)]
        report = run_campaign(catalog, str(tmp_path / "c"))
        assert (report.total_shards, report.dedupe_hits, report.computed) == (4, 2, 2)

    def test_cache_hits_counted_on_rerun(self, tmp_path):
        catalog = [ClusterSpec(n_nodes=16)]
        run_campaign(catalog, str(tmp_path / "c"))
        report = run_campaign(catalog, str(tmp_path / "c"))
        assert (report.cache_hits, report.computed) == (1, 0)

    def test_campaign_and_shard_spans_recorded(self, tmp_path):
        with wallclock.profile() as rec:
            run_campaign([ClusterSpec(n_nodes=16), ClusterSpec(n_nodes=32)],
                         str(tmp_path / "c"))
        names = [s.name for s in rec.spans]
        # one compute span per finished shard, plus the one that finds none left
        assert names.count("campaign.compute") == 3
        assert {"campaign.fingerprint", "campaign.store", "campaign.finalize"} <= set(names)


class TestFailureShards:
    # omega_m + omega_l != 1 passes spec validation but the Cosmology
    # constructor rejects it at run time: a deterministic physics error.
    BAD = CosmologySpec(n_side=4, omega_m=0.4, omega_l=0.7)

    def test_failed_shard_becomes_data(self, tmp_path):
        report = run_campaign([self.BAD, ClusterSpec(n_nodes=16)], str(tmp_path / "c"))
        assert report.failed == 1
        assert report.computed == 1
        [error] = report.errors.values()
        assert "ValueError" in error

    def test_failed_shard_excluded_from_results_included_in_shards(self, tmp_path):
        root = tmp_path / "c"
        run_campaign([self.BAD, ClusterSpec(n_nodes=16)], str(root))
        store = ResultStore(str(root))
        assert len(store.load_results()) == 1
        rows = store.load_shards()
        assert [r["status"] for r in rows] == ["failed", "computed"]
        assert "ValueError" in rows[0]["error"]

    def test_failed_shard_retried_on_resume(self, tmp_path):
        root = tmp_path / "c"
        run_campaign([self.BAD], str(root))
        report = run_campaign([self.BAD], str(root))
        assert report.cache_hits == 0 and report.resume_hits == 0
        assert report.failed == 1  # failures are never cached

    def test_failed_line_in_ledger_is_not_a_resume_hit(self, tmp_path):
        """A crash after a failure leaves an ``error`` line: the live
        view has it, resume does not trust it."""
        store = ResultStore(str(tmp_path / "c"))
        spec = self.BAD.to_dict()
        store.append_ledger({"fingerprint": scenario_fingerprint_hex(self.BAD),
                             "kind": "cosmology", "spec": spec, "error": "ValueError: x"})
        with open(store.ledger_path) as fh:
            assert set(json.loads(fh.read())) == {"fingerprint", "kind", "spec", "error"}
        assert store.load_ledger() == {}
        report = run_campaign([self.BAD], store.root)
        assert (report.resume_hits, report.failed) == (0, 1)


class TestLedger:
    @staticmethod
    def _record(n_nodes: int) -> dict:
        spec = ClusterSpec(n_nodes=n_nodes)
        return {"fingerprint": scenario_fingerprint_hex(spec), "kind": spec.kind,
                "spec": spec.to_dict(), "result": {"value": float(n_nodes)},
                "seconds": 0.25}  # operational: must not reach the file

    def test_round_trip_is_the_results_line(self, tmp_path):
        store = ResultStore(str(tmp_path / "c"))
        assert store.load_ledger() == {}
        first, second = self._record(16), self._record(32)
        store.append_ledger(first)
        store.append_ledger(second)
        with open(store.ledger_path) as fh:
            assert fh.read() == "".join(
                ResultStore.canonical_result_line(r) + "\n" for r in (first, second))
        assert list(store.load_ledger()) == [first["fingerprint"], second["fingerprint"]]

    def test_append_after_torn_tail_is_not_glued(self, tmp_path):
        store = ResultStore(str(tmp_path / "c"))
        first, second = self._record(16), self._record(32)
        store.append_ledger(first)
        with open(store.ledger_path, "ab") as fh:  # the writer died mid-line
            fh.write(ResultStore.canonical_result_line(second)[:40].encode())
        assert list(store.load_ledger()) == [first["fingerprint"]]
        store.append_ledger(second)
        ledger = store.load_ledger()
        assert list(ledger) == [first["fingerprint"], second["fingerprint"]]
        assert ledger[second["fingerprint"]]["result"] == {"value": 32.0}
        with open(store.ledger_path, "rb") as fh:
            assert fh.read().count(b"\n") == 2  # fragment cut off, not kept

    def test_append_to_a_ledger_that_is_only_a_fragment(self, tmp_path):
        store = ResultStore(str(tmp_path / "c"))
        with open(store.ledger_path, "wb") as fh:
            fh.write(b'{"fingerprint":"ab')
        store.append_ledger(self._record(16))
        assert len(store.load_ledger()) == 1

    def test_any_byte_outside_the_result_value_drops_only_its_line(self, tmp_path):
        """Overwrite each byte of the middle line in turn: key names,
        fingerprint, kind, spec, punctuation.  Only the ``result`` value
        is beyond the fingerprint's reach (see the module docstring)."""
        store = ResultStore(str(tmp_path / "c"))
        records = [self._record(n) for n in (16, 32, 64)]
        for record in records:
            store.append_ledger(record)
        with open(store.ledger_path, "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
        victim = lines[1]
        value = range(victim.index(b'"result":') + len(b'"result":'),
                      victim.index(b',"spec":'))
        others = [records[0]["fingerprint"], records[2]["fingerprint"]]
        for at in range(len(victim) - 1):  # the newline itself is the torn-tail case
            if at in value:
                continue
            byte = b"0" if victim[at:at + 1] != b"0" else b"1"
            with open(store.ledger_path, "wb") as fh:
                fh.write(lines[0] + victim[:at] + byte + victim[at + 1:] + lines[2])
            assert list(store.load_ledger()) == others, at

    def test_write_results_retires_the_ledger(self, tmp_path):
        store = ResultStore(str(tmp_path / "c"))
        store.append_ledger(self._record(16))
        store.write_results(store.load_ledger().values())
        assert not os.path.exists(store.ledger_path)
        assert len(store.load_results()) == 1


class TestDamagedFinalizedFiles:
    """Finalized files refuse, naming file and line; they are not healed."""

    @pytest.fixture()
    def store(self, tmp_path):
        root = tmp_path / "c"
        run_campaign(sweep(ClusterSpec(), n_nodes=[16, 32, 64]), str(root))
        return ResultStore(str(root))

    @staticmethod
    def _damage(path: str, lineno: int, text: str) -> None:
        with open(path) as fh:
            lines = fh.readlines()
        lines[lineno - 1] = text
        with open(path, "w") as fh:
            fh.writelines(lines)

    @pytest.mark.parametrize("text", ["{not json\n", '{"kind":"cluster"}\n', "[1, 2]\n"],
                             ids=["not_json", "missing_keys", "not_an_object"])
    def test_results_line_refused(self, store, text):
        self._damage(store.results_path, 2, text)
        where = re.escape(f"{store.results_path}:2:")
        with pytest.raises(ValueError, match=where):
            store.load_results()
        with pytest.raises(ValueError, match=where):
            store.status()
        with pytest.raises(ValueError, match=where):
            store.query()
        with pytest.raises(ValueError, match=where):
            run_campaign([ClusterSpec(n_nodes=16)], store.root)

    @pytest.mark.parametrize("text", ['{"index": 2, "fing\n', '{"index": 2}\n'],
                             ids=["torn", "missing_keys"])
    def test_shards_line_refused(self, store, text):
        self._damage(store.shards_path, 3, text)
        where = re.escape(f"{store.shards_path}:3:")
        with pytest.raises(ValueError, match=where):
            store.load_shards()
        with pytest.raises(ValueError, match=where):
            store.status()


def _row(index, status, seconds, error=None):
    """One ``shards.jsonl`` row as the runner builds it."""
    row = {"index": index, "fingerprint": f"{index:032x}", "kind": "cluster",
           "status": status, "seconds": seconds}
    if error is not None:
        row["error"] = error
    return row


class TestShardRowBytes:
    """``shards.jsonl`` holds each row as ``json.dumps(row, sort_keys=True)``
    encodes it, one line a row: pinned before the store shared one
    encoder, so the rows' bytes never moved."""

    @pytest.mark.parametrize("rows", [
        [_row(i, status, 0.0) for i, status in enumerate(SHARD_STATUSES)],
        [_row(0, "computed", None), _row(1, "computed", 1.7976931348623157e308),
         _row(2, "cached", 123456789.125), _row(3, "resumed", 5e-324)],
        [_row(0, "failed", 0.25, "ValueError: omega_m + omega_l != 1"),
         _row(1, "failed", 1e12, "d\u00e9j\u00e0 vu \u4e16\U0001f680 \"q\"\n\ttab\\"),
         _row(2, "dedupe", 0.0)],
    ], ids=["every_status", "seconds", "error_text"])
    def test_rows_are_the_json_dumps_lines(self, tmp_path, rows):
        store = ResultStore(str(tmp_path / "c"))
        store.write_shards(rows)
        with open(store.shards_path, "rb") as fh:
            data = fh.read()
        want = "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows)
        assert data == want.encode("ascii")
        assert store.load_shards() == rows


class TestResultStoreQuery:
    @pytest.fixture()
    def populated(self, tmp_path):
        root = tmp_path / "c"
        catalog = [
            *sweep(ClusterSpec(), n_nodes=[16, 32, 64]),
            CosmologySpec(n_side=4, a_final=0.12),
        ]
        run_campaign(catalog, str(root))
        return ResultStore(str(root))

    def test_query_all(self, populated):
        rows = populated.query()
        assert len(rows) == 4
        assert all({"fingerprint", "kind", "spec", "result"} <= set(r) for r in rows)

    def test_query_by_kind_and_limit(self, populated):
        assert len(populated.query(kind="cluster")) == 3
        assert len(populated.query(kind="cluster", limit=2)) == 2
        assert populated.query(kind="supernova") == []

    def test_query_round_trips_spec(self, populated):
        for row in populated.query(kind="cosmology"):
            spec = spec_from_dict(row["spec"])
            assert spec.kind == "cosmology"
            assert row["result"]["steps"] > 0

    def test_stale_index_rebuilt(self, populated):
        populated.query()  # builds index.sqlite
        assert os.path.exists(populated.db_path)
        # The JSONL is not older than the index (a tie at the kernel's
        # timestamp tick counts): the next query rebuilds.
        records = list(populated.load_results().values())[:1]
        populated.write_results(records)
        assert len(populated.query()) == 1

    def test_status_tallies(self, populated):
        status = populated.status()
        assert status["results"] == 4
        assert status["shards"] == 4
        assert status["by_status"]["computed"] == 4

    def test_empty_store(self, tmp_path):
        store = ResultStore(str(tmp_path / "nothing"))
        assert store.load_results() == {}
        assert store.query() == []
        assert store.status()["shards"] == 0


class TestCatalogRoundTrip:
    def test_save_and_load(self, tmp_path):
        path = str(tmp_path / "cat.jsonl")
        specs = [ClusterSpec(n_nodes=16), CosmologySpec(n_side=4)]
        save_catalog(specs, path)
        assert load_catalog(path) == specs

    def test_bad_line_reports_location(self, tmp_path):
        path = tmp_path / "cat.jsonl"
        path.write_text('{"kind": "cluster"}\n{"kind": "warp-drive"}\n')
        with pytest.raises(ValueError, match="cat.jsonl:2"):
            load_catalog(str(path))

    def test_dicts_accepted_in_catalogs(self, tmp_path):
        report = run_campaign(
            [{"kind": "cluster", "n_nodes": 16}], str(tmp_path / "c"),
        )
        assert report.computed == 1


class TestSpecsHoldJsonScalars:
    """Refused where the spec is made, with the field named: never an
    ``AttributeError`` or a JSON error from inside the fingerprint."""

    REFUSED = [
        pytest.param({"kind": "cluster", "n_nodes": np.int64(8)},
                     "ClusterSpec.n_nodes must be a finite JSON scalar, got int64", id="int64"),
        pytest.param({"kind": "cluster", "n_nodes": float("nan")},
                     "ClusterSpec.n_nodes must be a finite JSON scalar, got nan", id="nan"),
        pytest.param({"kind": "cluster", "work_hours": float("inf")},
                     "ClusterSpec.work_hours must be a finite JSON scalar, got inf", id="inf"),
        pytest.param({"kind": "cluster", "work_hours": [24.0]},
                     "ClusterSpec.work_hours must be a finite JSON scalar, got list", id="list"),
        pytest.param({"kind": "cosmology", "seed": None},
                     "CosmologySpec.seed must be a finite JSON scalar, got NoneType", id="None"),
        pytest.param({"kind": "cluster", "n_nodes": "8"},
                     "ClusterSpec.n_nodes must be a number, got '8'", id="str_for_number"),
        pytest.param({"kind": "bench", "bench": 7},
                     "BenchSpec.bench must be a string, got 7", id="number_for_str"),
        pytest.param({"kind": "cosmology", "box_mpc_h": -1.0},
                     "CosmologySpec.box_mpc_h must be positive, got -1.0", id="box"),
        pytest.param({"kind": "cosmology", "sigma8": 0.0},
                     "CosmologySpec.sigma8 must be positive, got 0.0", id="sigma8"),
        pytest.param({"kind": "supernova", "omega0": -0.1},
                     "SupernovaSpec.omega0 must be non-negative, got -0.1", id="omega0"),
        pytest.param({"kind": "supernova", "r0": 0.0},
                     "SupernovaSpec.r0 must be positive, got 0.0", id="r0"),
        pytest.param({"kind": "pipeline", "n_target_neighbors": 0},
                     "PipelineSpec.n_target_neighbors must be at least 1, got 0",
                     id="neighbors"),
    ]

    @pytest.mark.parametrize("entry,message", REFUSED)
    def test_field_refused_by_name(self, tmp_path, entry, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            spec_from_dict(entry)
        with pytest.raises(ValueError, match=re.escape(message)):
            run_campaign([entry], str(tmp_path / "c"))
        assert not os.path.exists(tmp_path / "c")  # refused before a store exists

    @pytest.mark.parametrize("entry", [None, 42, "cluster", [("kind", "cluster")]],
                             ids=["None", "int", "str", "list"])
    def test_non_mapping_refused(self, tmp_path, entry):
        message = ("scenario must be a ScenarioSpec or a mapping with 'kind', "
                   f"got {type(entry).__name__}")
        with pytest.raises(TypeError, match=re.escape(message)):
            run_campaign([entry], str(tmp_path / "c"))

    @pytest.mark.parametrize("line", ["42", "null", '{"kind": "cluster", "n_nodes": "8"}',
                                      '{"kind": "cluster", "n_nodes": NaN}',
                                      '{"kind": "cluster", "n_nodes": [8]}'],
                             ids=["int", "null", "str_for_number", "nan", "list"])
    def test_load_catalog_names_the_line(self, tmp_path, line):
        path = tmp_path / "cat.jsonl"
        path.write_text('{"kind": "cluster"}\n' + line + "\n")
        with pytest.raises(ValueError, match=r"cat\.jsonl:2: bad catalog line"):
            load_catalog(str(path))

    def test_a_huge_int_is_a_scalar(self):
        assert ClusterSpec(n_nodes=10**400).to_dict()["n_nodes"] == 10**400
