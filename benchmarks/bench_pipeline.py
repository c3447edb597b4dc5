"""Bench pipeline — distribution validation of end-to-end observables.

Draws an ensemble of full pipeline scenarios (ICs → PM structure →
FoF halos → P(k) → SPH core collapse) through
:func:`repro.pipeline.run_ensemble`, then validates the *distribution*
of the emitted observables — moments and quantile envelopes against
the committed reference bands below — rather than any single run.
A second pass over the same store must be pure cache hits, so the
record's counters carry both the science moments and the campaign
hit rates the fleet gate tracks.

``--smoke`` shrinks the box to ``n_side=6`` (too coherent to form
halos, so the halo-count bands only apply in full mode) and the
ensemble to 8 scenarios, finishing in well under a second for the CI
fleet; full mode runs 12 scenarios of the halo-forming default box.
"""

import tempfile

from repro.campaign import PipelineSpec, ResultStore
from repro.pipeline import Grid, Uniform, ensemble_statistics, run_ensemble

from _harness import Bench, shard_breakdown

#: Committed reference envelopes: metric -> statistic -> (lo, hi).
#: Bands are ±~40% around the measured ensemble values (seeds below),
#: wide enough for cross-platform float drift, tight enough that a
#: physics regression (lost halos, dead neutrino burst, wrong growth)
#: trips them.
SMOKE_ENVELOPES = {
    "density_rms": {"mean": (0.09, 0.21), "q50": (0.09, 0.21)},
    "rms_displacement": {"mean": (0.004, 0.011)},
    "pk_total": {"mean": (2000.0, 6200.0)},
    "max_density": {"mean": (4.0, 26.0)},
    "time_to_peak": {"mean": (0.01, 0.12), "q50": (0.01, 0.12)},
    "peak_luminosity": {"min": (0.0, 1.0), "max": (1e-5, 0.1)},
}

FULL_ENVELOPES = {
    "density_rms": {"mean": (0.45, 0.95), "q50": (0.45, 0.95)},
    "rms_displacement": {"mean": (0.005, 0.014)},
    "n_halos": {"mean": (5.0, 35.0), "max": (8.0, 80.0)},
    "largest_halo": {"max": (4.0, 60.0)},
    "pk_total": {"mean": (8000.0, 30000.0)},
    "max_density": {"mean": (5.0, 30.0)},
    "time_to_peak": {"mean": (0.01, 0.10), "q50": (0.01, 0.10)},
    "peak_luminosity": {"max": (1e-5, 0.1)},
}


def check_envelopes(stats: dict, envelopes: dict) -> list:
    """Every committed (metric, statistic) band must hold; quantiles
    must be ordered.  Returns the violations (empty = pass)."""
    bad = []
    for metric, bands in envelopes.items():
        if metric not in stats:
            bad.append(f"{metric}: missing from ensemble statistics")
            continue
        entry = stats[metric]
        for stat, (lo, hi) in bands.items():
            v = entry[stat]
            if not lo <= v <= hi:
                bad.append(f"{metric}.{stat}={v:.6g} outside [{lo:.6g}, {hi:.6g}]")
    for metric, entry in stats.items():
        if not entry["q10"] <= entry["q50"] <= entry["q90"]:
            bad.append(f"{metric}: quantiles out of order")
    return bad


def _run(n_scenarios: int, smoke: bool) -> dict:
    base = (PipelineSpec(n_side=6, a_final=0.3, sn_particles=24, sn_steps=2) if smoke
            else PipelineSpec())
    distributions = {
        "seed": Grid(values=(1, 2, 3, 4, 5, 6)),
        "omega0": Uniform(low=0.15, high=0.45),
    }
    with tempfile.TemporaryDirectory() as root:
        first = run_ensemble(base, distributions, n_scenarios, root, seed=7)
        second = run_ensemble(base, distributions, n_scenarios, root, seed=7)
        shards = shard_breakdown(ResultStore(root).load_shards())
    return {
        "first": first.report,
        "second": second.report,
        "stats": ensemble_statistics([r["summary"] for r in first.results]),
        "shards": shards,
        "smoke": smoke,
    }


def check(out) -> None:
    # The smoke box is too small to form halos: its bands leave them out.
    envelopes = SMOKE_ENVELOPES if out["smoke"] else FULL_ENVELOPES
    violations = check_envelopes(out["stats"], envelopes)
    assert not violations, (
        "pipeline observable distributions left their envelopes:\n  "
        + "\n  ".join(violations)
    )
    assert out["second"].hit_rate == 1.0  # the second pass computed nothing


#: Smoke runs 8 scenarios of the n_side=6 box in place of 12 of the
#: halo-forming default box.
BENCH = Bench(
    ("pipeline", "cosmology", "sph", "campaign"), _run, check,
    sizes={"n_scenarios": 12, "smoke": False}, smoke={"n_scenarios": 8, "smoke": True},
    counters=lambda out: {
        "scenarios": out["first"].total_shards,
        "computed": out["first"].computed,
        "cache_hits": out["second"].cache_hits,
        "rerun_hit_rate": out["second"].hit_rate,
        "failed": out["first"].failed + out["second"].failed,
        "density_rms_mean": out["stats"]["density_rms"]["mean"],
        "density_rms_std": out["stats"]["density_rms"]["std"],
        "n_halos_mean": out["stats"]["n_halos"]["mean"],
        "largest_halo_max": out["stats"]["largest_halo"]["max"],
        "pk_total_mean": out["stats"]["pk_total"]["mean"],
        "time_to_peak_q50": out["stats"]["time_to_peak"]["q50"],
        "max_density_mean": out["stats"]["max_density"]["mean"],
    },
    shards=lambda out: out["shards"],
    notes=lambda out: "smoke ensemble (n_side=6, no halo bands)" if out["smoke"]
    else "full ensemble (halo-forming n_side=12 box)",
)


if __name__ == "__main__":
    BENCH.cli(__file__, __doc__)
