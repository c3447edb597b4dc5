"""Differential determinism suite for the campaign engine.

The PR-5 convention (async comm must be bit-identical to blocking)
applied one layer up: a catalog run serially, on a 2-process pool, and
on a 4-process pool must produce **bit-identical result stores**.
Physics must never depend on which core computed it or in what order
shards completed.  The deterministic surface is ``results.jsonl``
(canonical lines, compared order-normalized per the store contract);
the operational surface (``shards.jsonl``) must agree on everything
but wall timings.
"""

import json

import numpy as np
import pytest

from repro.campaign import (
    ClusterSpec,
    CosmologySpec,
    SupernovaSpec,
    resolve_workers,
    run_campaign,
    sweep,
)
from repro.core.backend import NumpyBackend
from repro.core.procpool import ProcPool, run_tasks


def sixteen_scenarios():
    """A 16-entry catalog across all three kinds, with duplicates.

    Entries 14 and 15 repeat earlier specs so every run also exercises
    the dedupe path (2 dedupe hits, 14 unique shards).
    """
    specs = [
        *sweep(ClusterSpec(work_hours=24.0), n_nodes=[32, 64, 128, 294, 512, 1024]),
        *sweep(CosmologySpec(n_side=4, a_final=0.15), seed=[1, 2, 3]),
        *sweep(CosmologySpec(n_side=4, a_final=0.12, omega_m=0.25, omega_l=0.75), seed=[1, 2]),
        SupernovaSpec(n_particles=40, n_steps=2),
        SupernovaSpec(n_particles=40, n_steps=2, omega0=0.6),
        SupernovaSpec(n_particles=48, n_steps=1),
        ClusterSpec(work_hours=24.0, n_nodes=294),   # dup of the sweep
        CosmologySpec(n_side=4, a_final=0.15, seed=2),  # dup of the sweep
    ]
    assert len(specs) == 16
    return specs


def normalized_results(store_dir) -> list[str]:
    """Order-normalized canonical result lines."""
    with open(store_dir / "results.jsonl") as fh:
        return sorted(line.rstrip("\n") for line in fh if line.strip())


def normalized_shards(store_dir) -> list[dict]:
    """Shard rows with the wall-clock fields stripped."""
    rows = []
    with open(store_dir / "shards.jsonl") as fh:
        for line in fh:
            row = json.loads(line)
            row.pop("seconds", None)
            rows.append(row)
    return sorted(rows, key=lambda r: r["index"])


class TestSerialVsPoolBitIdentity:
    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        catalog = sixteen_scenarios()
        out = {}
        for label, workers in (("serial", 1), ("pool2", 2), ("pool4", 4)):
            root = tmp_path_factory.mktemp(f"campaign_{label}")
            out[label] = (root, run_campaign(catalog, str(root), workers=workers))
        return out

    @pytest.mark.parametrize("pooled", ["pool2", "pool4"])
    def test_result_store_bit_identical(self, runs, pooled):
        serial_root, _ = runs["serial"]
        pool_root, _ = runs[pooled]
        assert normalized_results(pool_root) == normalized_results(serial_root)

    def test_results_are_byte_identical_even_unsorted(self, runs):
        # Finalization writes catalog order, so the whole file — not
        # just its sorted lines — must match across pool sizes.
        blobs = {
            label: (root / "results.jsonl").read_bytes()
            for label, (root, _) in runs.items()
        }
        assert blobs["serial"] == blobs["pool2"] == blobs["pool4"]

    @pytest.mark.parametrize("pooled", ["pool2", "pool4"])
    def test_shard_statuses_identical(self, runs, pooled):
        serial_root, _ = runs["serial"]
        pool_root, _ = runs[pooled]
        assert normalized_shards(pool_root) == normalized_shards(serial_root)

    def test_reports_agree_on_everything_but_timing(self, runs):
        dicts = []
        for _, report in runs.values():
            d = report.to_dict()
            d.pop("seconds")
            d.pop("workers")
            d.pop("root")
            dicts.append(d)
        assert dicts[0] == dicts[1] == dicts[2]

    def test_dedupe_hits_reported(self, runs):
        _, report = runs["serial"]
        assert report.dedupe_hits == 2
        assert report.unique == 14
        assert report.computed == 14
        assert report.failed == 0

    def test_sixteen_shard_rows_and_fourteen_results(self, runs):
        root, _ = runs["serial"]
        assert len(normalized_shards(root)) == 16
        assert len(normalized_results(root)) == 14


class TestWorkerResolution:
    def test_env_var_drives_pool_size(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CAMPAIGN_WORKERS", "2")
        report = run_campaign(
            sweep(ClusterSpec(), n_nodes=[16, 32, 48]), str(tmp_path / "c"),
        )
        assert report.workers == 2
        assert report.computed == 3

    def test_kwarg_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CAMPAIGN_WORKERS", "8")
        report = run_campaign(
            [ClusterSpec(n_nodes=16)], str(tmp_path / "c"), workers=1,
        )
        assert report.workers == 1

    def test_bad_env_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CAMPAIGN_WORKERS", "many")
        with pytest.raises(ValueError, match="REPRO_CAMPAIGN_WORKERS"):
            run_campaign([ClusterSpec()], str(tmp_path / "c"))


class TestWorkersMustBeAnInteger:
    """``int()`` would quietly run ``2.5`` as 2 workers, ``True`` as 1
    and ``"4"`` as 4; every entry point that takes ``workers=`` refuses
    them instead."""

    @pytest.mark.parametrize("bad", [2.5, True, "4"])
    def test_non_integer_refused_everywhere(self, tmp_path, bad):
        with pytest.raises(ValueError, match="workers must be an integer"):
            run_campaign([ClusterSpec()], str(tmp_path / "c"), workers=bad)
        for make in (ProcPool, lambda workers: NumpyBackend(threads=workers),
                     lambda workers: run_tasks(abs, [(1,)], workers=workers)):
            with pytest.raises(ValueError, match="workers must be an integer"):
                make(workers=bad)

    @pytest.mark.parametrize("given, resolved", [(np.int64(2), 2), (0, 1), (-3, 1)])
    def test_integers_keep_their_meaning(self, given, resolved):
        assert resolve_workers(given) == resolved
        assert ProcPool(workers=given).workers == resolved
        assert NumpyBackend(threads=given).threads == resolved


class TestPooledRunMatchesCachedRerun:
    def test_second_run_all_cache_hits_and_identical_store(self, tmp_path):
        catalog = list(sweep(ClusterSpec(), n_nodes=[8, 16, 24, 8]))
        root = tmp_path / "c"
        first = run_campaign(catalog, str(root), workers=2)
        blob = (root / "results.jsonl").read_bytes()
        second = run_campaign(catalog, str(root), workers=1)
        assert first.computed == 3 and first.dedupe_hits == 1
        assert second.computed == 0
        assert second.cache_hits == 3
        assert second.hit_rate == 1.0
        assert (root / "results.jsonl").read_bytes() == blob
