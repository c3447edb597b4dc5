"""The end-to-end pipeline: distributions, stage chaining, typed
products, per-stage checkpoint resume, and instrumentation.

The fast specs here use the smallest legal box (``n_side=4``) — too
coherent to form halos, which is itself a valid product (an all-zero
mass function), so the whole suite stays in the default tier's budget.
"""

import dataclasses
import json
import math
import os

import numpy as np
import pytest

from repro.campaign import PipelineSpec, SPEC_KINDS, scenario_fingerprint_hex, spec_from_dict, sweep
from repro.obs import wallclock
from repro.resilience.checkpoint import CheckpointStore
from repro.pipeline import (
    Distribution,
    Fixed,
    Grid,
    HMF_BIN_EDGES,
    Normal,
    PIPELINE_STAGES,
    PipelineProducts,
    STAGE_NAMES,
    Uniform,
    as_distribution,
    chain_seed,
    distribution_from_dict,
    draw_specs,
    ensemble_statistics,
    run_pipeline,
)

FAST = PipelineSpec(n_side=4, a_final=0.2, sn_particles=16, sn_steps=2,
                    with_neutrinos=False)


def _run(spec, **kwargs):
    """``run_pipeline`` under ``profile()``: its products, and the names
    of the stages it executed, read from their ``pipeline.<stage>`` spans."""
    with wallclock.profile() as rec:
        products = run_pipeline(spec, **kwargs)
    return products, [s.args_dict["stage"] for s in rec.spans if "stage" in s.args_dict]


class TestDistributions:
    @pytest.mark.parametrize("dist", [
        Fixed(value=3), Uniform(low=0.1, high=0.5),
        Normal(mean=0.3, sigma=0.1, low=0.0, high=1.0), Grid(values=(1, 2, 3)),
    ])
    def test_json_round_trip(self, dist):
        encoded = json.loads(json.dumps(dist.to_dict()))
        assert distribution_from_dict(encoded) == dist

    def test_draws_respect_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            assert 0.1 <= Uniform(low=0.1, high=0.5).draw(rng, 0) < 0.5
            assert 0.0 <= Normal(mean=0.5, sigma=5.0, low=0.0, high=1.0).draw(rng, 0) <= 1.0

    def test_grid_cycles_by_index(self):
        g = Grid(values=(10, 20, 30))
        assert [g.draw(None, i) for i in range(5)] == [10, 20, 30, 10, 20]

    def test_as_distribution_coercions(self):
        assert as_distribution(0.3) == Fixed(value=0.3)
        assert as_distribution([1, 2]) == Grid(values=(1, 2))
        assert as_distribution(Fixed(value=1)) == Fixed(value=1)
        assert as_distribution({"kind": "uniform", "low": 0.0, "high": 1.0}) == \
            Uniform(low=0.0, high=1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Uniform(low=1.0, high=0.0)
        with pytest.raises(ValueError):
            Grid(values=())
        with pytest.raises(ValueError):
            distribution_from_dict({"kind": "lognormal"})

    @pytest.mark.parametrize("cls,kwargs,message", [
        (Normal, {"sigma": math.nan}, "Normal.sigma must be finite and non-negative, got nan"),
        (Normal, {"sigma": math.inf}, "Normal.sigma must be finite and non-negative, got inf"),
        (Normal, {"sigma": -1.0}, "Normal.sigma must be finite and non-negative, got -1.0"),
        (Normal, {"mean": math.inf}, "Normal.mean must be finite, got inf"),
        (Normal, {"mean": math.nan}, "Normal.mean must be finite, got nan"),
        (Normal, {"low": math.nan, "high": 1.0}, "Normal.low must be a number or None, got nan"),
        (Normal, {"high": math.nan}, "Normal.high must be a number or None, got nan"),
        (Normal, {"mean": "0.3"}, "Normal.mean must be finite, got '0.3'"),
        (Uniform, {"low": 0.0, "high": math.inf}, "Uniform.high must be finite, got inf"),
        (Uniform, {"low": math.nan, "high": 1.0}, "Uniform.low must be finite, got nan"),
        (Uniform, {"low": -math.inf, "high": 1.0}, "Uniform.low must be finite, got -inf"),
    ])
    def test_bad_parameters_refused_when_built(self, cls, kwargs, message):
        with pytest.raises(ValueError) as err:
            cls(**kwargs)
        assert str(err.value) == message
        with pytest.raises(ValueError, match=message.split(" must")[0]):
            distribution_from_dict({"kind": cls.kind, **kwargs})

    def test_infinite_normal_bounds_still_mean_no_bound(self):
        rng = np.random.default_rng(3)
        dist = Normal(mean=0.5, sigma=0.1, low=-math.inf, high=math.inf)
        assert distribution_from_dict(dist.to_dict()) == dist
        assert 0.0 < dist.draw(rng, 0) < 1.0

    def test_refused_before_draw_specs_draws(self):
        with pytest.raises(ValueError, match="Uniform.high"):
            draw_specs(FAST, {"omega0": {"kind": "uniform", "low": 0.0, "high": math.inf}}, 2)

    def test_base_distribution_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Distribution().draw(None, 0)


class TestDrawSpecs:
    DISTS = {"omega0": Uniform(low=0.1, high=0.5),
             "sigma8": Grid(values=(0.8, 0.9, 1.0))}

    def test_index_seeded_determinism_across_sizes(self):
        small = draw_specs(FAST, self.DISTS, 4, seed=9)
        large = draw_specs(FAST, self.DISTS, 9, seed=9)
        assert small == large[:4]

    def test_seed_changes_draws(self):
        a = draw_specs(FAST, self.DISTS, 4, seed=1)
        b = draw_specs(FAST, self.DISTS, 4, seed=2)
        assert [s.omega0 for s in a] != [s.omega0 for s in b]

    def test_type_coercion_to_field_types(self):
        specs = draw_specs(FAST, {
            "sn_steps": Uniform(low=1.2, high=3.8),       # int field
            "with_neutrinos": Grid(values=(0, 1)),        # bool field
            "omega0": Grid(values=(1,)),                  # float field
        }, 4, seed=0)
        for i, s in enumerate(specs):
            assert isinstance(s.sn_steps, int) and 1 <= s.sn_steps <= 4
            assert isinstance(s.with_neutrinos, bool)
            assert isinstance(s.omega0, float)
            assert s.with_neutrinos is bool(i % 2)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown spec fields"):
            draw_specs(FAST, {"warp_factor": Fixed(value=9)}, 2)

    def test_drawn_specs_are_validated(self):
        # a draw violating the spec's own __post_init__ must raise
        with pytest.raises(ValueError):
            draw_specs(FAST, {"n_side": Fixed(value=2)}, 1)

    def test_shorthand_accepted(self):
        specs = draw_specs(FAST, {"seed": [1, 2], "omega0": 0.4}, 3, seed=0)
        assert [s.seed for s in specs] == [1, 2, 1]
        assert all(s.omega0 == 0.4 for s in specs)


class TestPipelineSpec:
    def test_registered_with_campaign_engine(self):
        assert SPEC_KINDS["pipeline"] is PipelineSpec
        d = json.loads(json.dumps(PipelineSpec().to_dict()))
        assert spec_from_dict(d) == PipelineSpec()

    def test_sweep_builds_pipeline_catalogs(self):
        catalog = list(sweep(FAST, seed=[1, 2, 3]))
        assert [s.seed for s in catalog] == [1, 2, 3]

    @pytest.mark.parametrize("bad", [
        {"n_side": 3}, {"a_final": 0.05}, {"dlna": 0.0}, {"k_cut_fraction": 0.0},
        {"linking_length": 0.0}, {"min_members": 0}, {"pk_bins": 1},
        {"sn_particles": 4}, {"sn_steps": 0}, {"pressure_deficit": 1.5},
        {"box_mpc_h": -1.0}, {"h": -0.7}, {"omega_m": 0.0}, {"sigma8": 0.0},
        {"omega0": -5.0}, {"r0": -1.0}, {"n_target_neighbors": 0},
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            dataclasses.replace(PipelineSpec(), **bad)

    def test_chain_seed_depends_on_halo_catalog(self):
        assert chain_seed(1, 0, 0) != chain_seed(1, 12, 5)
        assert 0 <= chain_seed(20031115, 24, 16) < 2**31


class TestRunPipeline:
    @pytest.fixture(scope="class")
    def products(self):
        return run_pipeline(FAST)

    def test_stage_declarations(self):
        assert STAGE_NAMES == ("ics", "structure", "halos", "power", "supernova")
        for stage in PIPELINE_STAGES:
            assert stage.outputs, stage.name
        # the supernova stage consumes the halo catalog: a real chain
        supernova = PIPELINE_STAGES[-1]
        assert "n_halos" in supernova.inputs

    def test_emits_all_three_product_families(self, products):
        assert products.mass_function.bin_edges == HMF_BIN_EDGES
        assert len(products.mass_function.counts) == len(HMF_BIN_EDGES) - 1
        assert len(products.power_spectrum.k) >= 2
        assert products.power_spectrum.total > 0
        assert len(products.light_curve.times) == FAST.sn_steps
        assert products.light_curve.max_density > 0
        assert products.a_final == pytest.approx(FAST.a_final)

    def test_products_round_trip_and_summary(self, products):
        encoded = json.loads(json.dumps(products.to_dict()))
        assert PipelineProducts.from_dict(encoded) == products
        summary = products.summary()
        assert json.loads(json.dumps(summary)) == summary
        assert summary["structure_steps"] > 0
        assert summary["n_halos"] >= 0

    def test_deterministic(self, products):
        again = run_pipeline(FAST)
        assert again.to_dict() == products.to_dict()

    def test_fingerprint_names_the_spec(self, products):
        assert products.fingerprint == scenario_fingerprint_hex(FAST.to_dict())

    def test_halo_forming_box_fills_the_mass_function(self):
        # the default parameterization exists to actually form halos
        products = run_pipeline(PipelineSpec(seed=1))
        assert products.mass_function.n_halos > 0
        assert sum(products.mass_function.counts) == products.mass_function.n_halos

    def test_spans_and_counters(self):
        with wallclock.profile() as rec:
            run_pipeline(FAST)
        stages = [s for s in rec.spans if s.cat == "pipeline"]
        assert [s.name for s in stages] == [f"pipeline.{name}" for name in STAGE_NAMES]
        assert [s.args_dict for s in stages] == [{"stage": name} for name in STAGE_NAMES]

    def test_unknown_stop_after_rejected(self):
        with pytest.raises(ValueError, match="unknown stage"):
            run_pipeline(FAST, stop_after="warp")


class TestCheckpointResume:
    def test_resume_after_every_stage(self, tmp_path):
        """Stopping after any stage, the rerun resumes exactly there
        and reproduces the uninterrupted products bit for bit."""
        reference = run_pipeline(FAST).to_dict()
        for i, stop in enumerate(STAGE_NAMES[:-1]):
            ckpt_dir = str(tmp_path / f"ck_{stop}")
            out, first = _run(FAST, checkpoint_dir=ckpt_dir, stop_after=stop)
            assert out is None
            assert first == list(STAGE_NAMES[:i + 1])
            resumed, rest = _run(FAST, checkpoint_dir=ckpt_dir)
            assert rest == list(STAGE_NAMES[i + 1:])
            assert resumed.to_dict() == reference

    def test_completed_run_resumes_to_noop_products(self, tmp_path):
        ckpt_dir = str(tmp_path / "ck")
        reference = run_pipeline(FAST, checkpoint_dir=ckpt_dir)
        again, rerun = _run(FAST, checkpoint_dir=ckpt_dir)
        assert rerun == []  # nothing recomputed
        assert again.to_dict() == reference.to_dict()

    def test_foreign_checkpoints_are_ignored(self, tmp_path):
        """A different spec's checkpoints in the same directory must
        not be resumed — the fingerprint guards the restart point."""
        ckpt_dir = str(tmp_path / "ck")
        run_pipeline(FAST, checkpoint_dir=ckpt_dir, stop_after="halos")
        other = dataclasses.replace(FAST, seed=7)
        products, stages = _run(other, checkpoint_dir=ckpt_dir)
        assert stages == list(STAGE_NAMES)  # clean start, no resume
        assert products.to_dict() == run_pipeline(other).to_dict()

    @staticmethod
    def _epoch_dirs(ckpt_dir):
        return sorted(name for name in os.listdir(ckpt_dir) if name.startswith("epoch_"))

    def test_checkpointed_run_leaves_one_epoch(self, tmp_path):
        ckpt_dir = str(tmp_path / "ck")
        run_pipeline(FAST, checkpoint_dir=ckpt_dir)
        assert self._epoch_dirs(ckpt_dir) == [f"epoch_{len(STAGE_NAMES) - 1:04d}"]

    def test_pruned_stop_after_halos_resumes_bit_for_bit(self, tmp_path):
        ckpt_dir = str(tmp_path / "ck")
        assert run_pipeline(FAST, checkpoint_dir=ckpt_dir, stop_after="halos") is None
        assert self._epoch_dirs(ckpt_dir) == ["epoch_0002"]
        resumed, rest = _run(FAST, checkpoint_dir=ckpt_dir)
        assert rest == ["power", "supernova"]
        assert resumed.to_dict() == run_pipeline(FAST).to_dict()

    def test_another_specs_five_epochs_start_clean(self, tmp_path):
        ckpt_dir = str(tmp_path / "ck")
        other = dataclasses.replace(FAST, seed=7)
        store = CheckpointStore(ckpt_dir)
        for epoch, stage in enumerate(STAGE_NAMES):  # laid down as an unpruned run left them
            store.write_rank(epoch, 0, {"positions": np.zeros((2, 3))})
            store.commit(epoch, {"stage": stage, "scalars": {},
                                 "fingerprint": scenario_fingerprint_hex(other.to_dict())})
        products, stages = _run(FAST, checkpoint_dir=ckpt_dir)
        assert stages == list(STAGE_NAMES)  # clean start, no resume
        assert products.to_dict() == run_pipeline(FAST).to_dict()
        assert self._epoch_dirs(ckpt_dir) == [f"epoch_{len(STAGE_NAMES) - 1:04d}"]
        again, rerun = _run(FAST, checkpoint_dir=ckpt_dir)
        assert again.to_dict() == products.to_dict()
        assert rerun == []  # the epoch left behind is this spec's

    def test_resume_counter(self, tmp_path):
        ckpt_dir = str(tmp_path / "ck")
        run_pipeline(FAST, checkpoint_dir=ckpt_dir, stop_after="structure")
        _, stages = _run(FAST, checkpoint_dir=ckpt_dir)
        assert stages == list(STAGE_NAMES[2:])  # two stages resumed, not rerun


class TestEnsembleStatistics:
    def test_moments_and_quantiles(self):
        stats = ensemble_statistics([{"x": float(v)} for v in range(1, 12)])
        x = stats["x"]
        assert x["n"] == 11 and x["mean"] == 6.0
        assert x["min"] == 1.0 and x["max"] == 11.0
        assert x["q10"] <= x["q50"] <= x["q90"]
        assert x["q50"] == 6.0

    def test_ragged_summaries(self):
        stats = ensemble_statistics([{"x": 1.0, "y": 2.0}, {"x": 3.0}])
        assert stats["x"]["n"] == 2 and stats["y"]["n"] == 1

    def test_empty(self):
        assert ensemble_statistics([]) == {}
