"""repro.pipeline — the simulator as a product, "supernovae to cosmology".

One call, :func:`run_pipeline`, chains everything the repo can do into
the paper's end-to-end story: Zel'dovich ICs → PM structure formation
→ FoF halo finding → P(k) → rotating SPH core collapse, emitting typed
observable products (halo mass function, matter power spectrum,
neutrino light curve).  One more call, :func:`run_ensemble`, scales it
to thousands of scenarios drawn from per-parameter
:mod:`~repro.pipeline.distributions`, riding the campaign engine's
worker pool, dedupe, and crash-safe resume.

Quickstart (a deliberately tiny box so the example itself is fast —
the default :class:`~repro.campaign.spec.PipelineSpec` is the
smallest halo-forming one):

>>> from repro.campaign import PipelineSpec
>>> from repro.pipeline import run_pipeline
>>> spec = PipelineSpec(n_side=4, a_final=0.2, sn_particles=16,
...                     sn_steps=2, with_neutrinos=False)
>>> products = run_pipeline(spec)
>>> sorted(products.summary())[:4]
['a_final', 'bounced', 'density_rms', 'largest_halo']
>>> len(products.light_curve.times)
2

Ensemble::

    from repro.pipeline import Uniform, run_ensemble
    ens = run_ensemble(PipelineSpec(), {"omega0": Uniform(low=0.1, high=0.5)},
                       n=100, store_dir="pipeline_out", workers=4)
    print(ens.statistics["time_to_peak"])

See ``docs/USER_GUIDE.md`` for the walkthrough and
``docs/COOKBOOK.md`` for recipes.
"""

from .._namespace import namespace

__all__, __getattr__, __dir__ = namespace(__name__, {
    "..campaign.spec": ("PipelineSpec",),
    ".distributions": (
        "Distribution", "Fixed", "Uniform", "Normal", "Grid", "DISTRIBUTION_KINDS",
        "distribution_from_dict", "as_distribution",
    ),
    ".driver": (
        "run_pipeline", "run_campaign_scenario", "draw_specs", "run_ensemble",
        "ensemble_statistics", "EnsembleResult",
    ),
    ".products": (
        "HMF_BIN_EDGES", "HaloMassFunction", "MatterPowerSpectrum", "LightCurve",
        "PipelineProducts", "summaries_of",
    ),
    ".stages": ("Stage", "PIPELINE_STAGES", "STAGE_NAMES", "chain_seed"),
})
