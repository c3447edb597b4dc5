"""The pipeline at campaign scale: a 100+-scenario drawn ensemble
through the worker pool with dedupe, plus the SIGKILL drill.

Pipeline scenarios are just one more campaign spec kind, so they must
inherit everything the campaign engine guarantees: content-fingerprint
dedupe of repeated draws, wallclock-bounded worker-pool execution,
crash-safe resume with zero recompute after SIGKILL, and a result
store byte-identical to an uninterrupted run.
"""

import dataclasses

import pytest

from repro.campaign import (
    PipelineSpec,
    run_campaign,
    save_catalog,
    scenario_fingerprint_hex,
)
from repro.campaign import workers as workers_module
from repro.campaign.workers import execute_shard
from repro.cosmology import background, power
from repro.pipeline import Grid, Uniform, draw_specs, run_ensemble
from repro.sph import collapse

#: Smallest legal box + tiny progenitor: ~tens of ms per scenario, so
#: a 100+-scenario campaign stays inside the default tier's budget.
FAST = PipelineSpec(n_side=4, a_final=0.2, sn_particles=16, sn_steps=2,
                    with_neutrinos=False)
DISTS = {"seed": Grid(values=tuple(range(1, 25))),
         "omega0": Uniform(low=0.1, high=0.5)}


@pytest.mark.slow
class TestHundredScenarioEnsemble:
    def test_ensemble_through_worker_pool_with_dedupe(self, tmp_path):
        # 96 drawn scenarios + 8 repeated draws = a 104-shard catalog
        # with exactly 96 unique fingerprints.
        drawn = draw_specs(FAST, DISTS, 96, seed=11)
        catalog = drawn + drawn[:8]
        assert len(catalog) >= 100

        report = run_campaign(catalog, str(tmp_path / "store"), workers=2)
        assert report.total_shards == len(catalog)
        assert report.unique == 96
        assert report.computed == 96
        assert report.dedupe_hits == 8
        assert report.failed == 0, report.errors

        # the same ensemble drawn again is pure cache, one call deep
        ens = run_ensemble(FAST, DISTS, 96, str(tmp_path / "store"), seed=11)
        assert ens.report.computed == 0
        assert ens.report.cache_hits == 96
        assert len(ens.results) == 96
        assert ens.fingerprints == [vars(s)["fingerprint"].hex() for s in ens.specs]

        # every scenario produced the three product families
        for result in ens.results:
            products = result["products"]
            assert set(products) >= {"mass_function", "power_spectrum", "light_curve"}
            assert len(products["light_curve"]["times"]) == FAST.sn_steps

        # and the ensemble statistics summarize all 96 draws
        assert ens.statistics["max_density"]["n"] == 96
        assert ens.statistics["density_rms"]["std"] > 0


@pytest.mark.slow
class TestSigkillResume:
    CATALOG = draw_specs(FAST, DISTS, 16, seed=5)

    def test_killed_pipeline_campaign_resumes_without_recompute(self, tmp_path,
                                                                sigkill_mid_campaign):
        catalog_path = tmp_path / "catalog.jsonl"
        save_catalog(self.CATALOG, str(catalog_path))
        crash_dir = tmp_path / "crashed"
        survivors = sigkill_mid_campaign(
            ["repro.campaign", "run", str(catalog_path), "--dir", str(crash_dir),
             "--workers", "2", "--throttle", "0.1"], crash_dir)
        assert 3 <= len(survivors) < 16, "kill landed mid-campaign"

        report = run_campaign(self.CATALOG, str(crash_dir), workers=1)
        assert set(report.computed_fingerprints) & survivors == set()
        assert report.resume_hits == len(survivors)
        assert report.computed == 16 - len(survivors)
        assert report.failed == 0, report.errors
        expected = {scenario_fingerprint_hex(s) for s in self.CATALOG}
        assert set(report.computed_fingerprints) | survivors == expected

        clean_dir = tmp_path / "clean"
        clean = run_campaign(self.CATALOG, str(clean_dir), workers=1)
        assert clean.computed == 16
        assert (crash_dir / "results.jsonl").read_bytes() == \
            (clean_dir / "results.jsonl").read_bytes()


class TestSharedTablesChangeNoResult:
    """Scenarios that share a cosmology or a polytropic index share its
    growth integral, sigma8 amplitude and Lane-Emden profile within a
    process.  Which scenario computed a table first, in which process,
    or whether it was kept at all must not show in a single byte."""

    #: Two cosmologies x two indices x two seeds; neighbours differ in
    #: both, so each table is reused later and out of order.
    CATALOG = [
        dataclasses.replace(FAST, omega_m=omega_m, omega_l=1.0 - omega_m,
                            n_poly=n_poly, seed=seed)
        for seed in (1, 2)
        for omega_m, n_poly in ((0.3, 3.0), (0.25, 1.5), (0.3, 1.5), (0.25, 3.0))
    ]

    def test_serial_pooled_and_unmemoized_stores_are_byte_identical(self, tmp_path,
                                                                     monkeypatch):
        def results(name, workers):
            report = run_campaign(self.CATALOG, str(tmp_path / name), workers=workers)
            assert (report.computed, report.failed) == (8, 0), report.errors
            return (tmp_path / name / "results.jsonl").read_bytes()

        serial, pooled = results("serial", 1), results("pooled", 2)

        forgotten = []

        def forgetful(spec_dict, throttle=0.0):
            forgotten.append(spec_dict["seed"])
            for memo in (background._growth_integral, power._shape_and_norm,
                         collapse._lane_emden):
                memo.cache_clear()
            return execute_shard(spec_dict, throttle)

        monkeypatch.setattr(workers_module, "execute_shard", forgetful)
        assert serial == pooled == results("unmemoized", 1)
        assert len(forgotten) == 8
