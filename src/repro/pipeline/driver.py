"""The end-to-end driver: one call from spec to observable products.

:func:`run_pipeline` chains the five stages of
:data:`repro.pipeline.stages.PIPELINE_STAGES` — cosmological ICs → PM
structure formation → FoF halos → P(k) → SPH core collapse — and
returns a :class:`repro.pipeline.products.PipelineProducts` (halo mass
function, matter power spectrum, neutrino light curve).  Around that
single-scenario call, three layers scale it to ensembles:

* :func:`draw_specs` turns a base :class:`~repro.campaign.spec.PipelineSpec`
  plus per-parameter :mod:`~repro.pipeline.distributions` into ``n``
  drawn specs (index-seeded: scenario ``i`` is stable across ensemble
  sizes);
* :func:`run_ensemble` pushes the drawn catalog through
  :func:`repro.campaign.run_campaign` — worker pool, fingerprint
  dedupe, crash-safe resume all inherited, since a pipeline scenario
  is just one more campaign spec kind;
* :func:`ensemble_statistics` reduces the per-scenario summaries to
  moments + quantiles per metric — the distributions that
  ``bench_pipeline.py`` gates against committed envelopes.

Checkpointing: pass ``checkpoint_dir`` and every completed stage
commits an epoch in the PR-1 two-phase
:class:`~repro.resilience.checkpoint.CheckpointStore` (arrays as
``.npy`` snapshots, JSON scalars in the commit metadata, the spec
fingerprint guarding against resuming someone else's state).  A rerun
resumes after the newest committed stage; a different spec in the same
directory starts from scratch.  Each epoch holds the whole state so far
and a resume reads only the newest, so every commit prunes the epochs
before it (``CheckpointStore.prune(keep_last=1)``): a finished run
leaves one epoch directory.

Instrumentation: under :func:`repro.obs.wallclock.profile` each
executed stage is one ``pipeline.<stage>`` span of the wall-clock
recorder (a resumed stage has none) and each checkpoint commit one
``pipeline.checkpoint`` span, so the run shows up in the per-span table.

>>> from repro.campaign.spec import PipelineSpec
>>> spec = PipelineSpec(n_side=4, a_final=0.2, sn_particles=16, sn_steps=2,
...                     with_neutrinos=False)
>>> products = run_pipeline(spec)
>>> sorted(products.summary())[:4]
['a_final', 'bounced', 'density_rms', 'largest_halo']
>>> products.power_spectrum.total > 0
True
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..obs import wallclock
from .distributions import as_distribution
from .products import (
    HMF_BIN_EDGES,
    HaloMassFunction,
    LightCurve,
    MatterPowerSpectrum,
    PipelineProducts,
)
from .stages import PIPELINE_STAGES, STAGE_NAMES

__all__ = [
    "run_pipeline",
    "run_campaign_scenario",
    "draw_specs",
    "run_ensemble",
    "ensemble_statistics",
    "EnsembleResult",
]


def _split_state(state: Mapping) -> tuple[dict, dict]:
    """Partition the stage state into (numpy arrays, JSON scalars)."""
    arrays = {k: v for k, v in state.items() if isinstance(v, np.ndarray)}
    scalars = {k: v for k, v in state.items() if not isinstance(v, np.ndarray)}
    return arrays, scalars


def _try_resume(ckpt, fingerprint: str) -> tuple[int, dict]:
    """Newest committed stage for this spec, plus its restored state."""
    latest = ckpt.latest_committed()
    if latest is None:
        return 0, {}
    meta = ckpt.commit_meta(latest)
    if meta.get("fingerprint") != fingerprint:
        return 0, {}  # another spec's checkpoints: ignore, start clean
    snap = ckpt.load_rank(latest, rank=0)
    state = dict(meta["scalars"])
    state.update(snap.arrays)
    return latest + 1, state


def _build_products(fingerprint: str, state: Mapping) -> PipelineProducts:
    return PipelineProducts(
        fingerprint=fingerprint,
        mass_function=HaloMassFunction(
            bin_edges=HMF_BIN_EDGES,
            counts=tuple(int(c) for c in state["hmf_counts"]),
            n_halos=int(state["n_halos"]),
            largest=int(state["largest_halo"]),
        ),
        power_spectrum=MatterPowerSpectrum(
            k=tuple(float(k) for k in state["pk_k"]),
            power=tuple(float(p) for p in state["pk_power"]),
        ),
        light_curve=LightCurve(
            times=tuple(float(t) for t in state["lc_times"]),
            luminosity=tuple(float(x) for x in state["lc_luminosity"]),
            central_density=tuple(float(x) for x in state["lc_central_density"]),
            bounced=bool(state["sn_bounced"]),
        ),
        a_final=float(state["a"]),
        density_rms=float(state["density_rms"]),
        rms_displacement=float(state["rms_displacement"]),
        structure_steps=int(state["structure_steps"]),
        sn_seed=int(state["sn_seed"]),
    )


def run_pipeline(
    spec,
    *,
    checkpoint_dir: str | None = None,
    backend=None,
    stop_after: str | None = None,
) -> PipelineProducts | None:
    """Run (or resume) the five-stage pipeline for one scenario.

    ``spec`` is a :class:`repro.campaign.spec.PipelineSpec` (or any
    object with its fields plus ``to_dict``).  With ``checkpoint_dir``
    each completed stage commits an epoch and a rerun resumes after
    the newest one.  ``backend`` routes the FoF and P(k) kernels
    through :mod:`repro.core.backend`; ``stop_after`` halts after the
    named stage (checkpoint workflows and drills) and returns ``None``
    unless the chain completed.
    """
    from ..campaign.fingerprint import scenario_fingerprint_hex

    if stop_after is not None and stop_after not in STAGE_NAMES:
        raise ValueError(f"unknown stage {stop_after!r}; stages: {STAGE_NAMES}")
    fingerprint = scenario_fingerprint_hex(spec.to_dict())

    ckpt = None
    start, state = 0, {}
    if checkpoint_dir is not None:
        from ..resilience.checkpoint import CheckpointStore

        ckpt = CheckpointStore(checkpoint_dir)
        start, state = _try_resume(ckpt, fingerprint)

    for index in range(start, len(PIPELINE_STAGES)):
        stage = PIPELINE_STAGES[index]
        with wallclock.span(f"pipeline.{stage.name}", cat="pipeline", stage=stage.name):
            out = stage.run(spec, state, backend)
        missing = set(stage.outputs) - set(out)
        if missing:
            raise RuntimeError(
                f"stage {stage.name!r} broke its contract: missing {sorted(missing)}"
            )
        state.update(out)
        if ckpt is not None:
            arrays, scalars = _split_state(state)
            with wallclock.span("pipeline.checkpoint", cat="pipeline"):
                ckpt.write_rank(index, 0, arrays)
                ckpt.commit(index, {
                    "stage": stage.name,
                    "fingerprint": fingerprint,
                    "scalars": scalars,
                })
                ckpt.prune(keep_last=1)
        if stage.name == stop_after:
            break

    if "sn_seed" not in state:  # stopped before the chain completed
        return None
    return _build_products(fingerprint, state)


def run_campaign_scenario(params: Mapping) -> dict:
    """Campaign entry point: one pipeline scenario → JSON result.

    The payload carries the flat ``summary`` (the unit of distribution
    validation) and the full nested ``products`` dict.
    """
    from ..campaign.spec import PipelineSpec

    products = run_pipeline(PipelineSpec(**params))
    return {"summary": products.summary(), "products": products.to_dict()}


def draw_specs(base, distributions: Mapping, n: int, *, seed: int = 0) -> list:
    """Draw ``n`` specs from per-field distributions over ``base``.

    ``distributions`` maps field names of ``base`` to
    :class:`~repro.pipeline.distributions.Distribution` values (or
    shorthand accepted by
    :func:`~repro.pipeline.distributions.as_distribution`: a scalar
    pins, a list cycles).  Draws are coerced to the field's current
    type (so a ``Uniform`` over an int field rounds), and every drawn
    spec passes its ``__post_init__`` validation.

    Index-seeded determinism: scenario ``i`` uses
    ``np.random.default_rng([seed, i])``, so it is identical whatever
    ``n`` is — growing an ensemble reuses (dedupes against) the smaller
    one's campaign results.

    >>> from repro.campaign.spec import PipelineSpec
    >>> from repro.pipeline.distributions import Uniform
    >>> base = PipelineSpec()
    >>> a = draw_specs(base, {"omega0": Uniform(low=0.1, high=0.5)}, 3, seed=1)
    >>> b = draw_specs(base, {"omega0": Uniform(low=0.1, high=0.5)}, 5, seed=1)
    >>> [s.omega0 for s in a] == [s.omega0 for s in b[:3]]
    True
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    names = {f.name for f in dataclasses.fields(base)}
    unknown = sorted(set(distributions) - names)
    if unknown:
        raise ValueError(f"unknown spec fields: {unknown}")
    dists = {name: as_distribution(d) for name, d in distributions.items()}
    specs = []
    for i in range(n):
        rng = np.random.default_rng([seed, i])
        drawn = {}
        for name in sorted(dists):
            value = dists[name].draw(rng, i)
            current = getattr(base, name)
            if isinstance(current, bool):
                value = bool(value)
            elif isinstance(current, int):
                value = int(round(float(value)))
            elif isinstance(current, float):
                value = float(value)
            drawn[name] = value
        specs.append(dataclasses.replace(base, **drawn))
    return specs


def ensemble_statistics(
    summaries: Sequence[Mapping], quantiles: Sequence[float] = (0.1, 0.5, 0.9)
) -> dict:
    """Moments + quantiles per summary metric, over an ensemble.

    Returns ``{metric: {"n", "mean", "std", "min", "max", "qXX"...}}``
    — the distribution table the pipeline bench validates against its
    committed envelopes.

    >>> stats = ensemble_statistics([{"x": 1.0}, {"x": 3.0}])
    >>> stats["x"]["mean"], stats["x"]["q50"]
    (2.0, 2.0)
    """
    keys: set = set()
    for s in summaries:
        keys.update(s)
    out: dict = {}
    for key in sorted(keys):
        vals = np.array([float(s[key]) for s in summaries if key in s])
        entry = {
            "n": int(vals.size),
            "mean": float(vals.mean()),
            "std": float(vals.std()),
            "min": float(vals.min()),
            "max": float(vals.max()),
        }
        for q in quantiles:
            entry[f"q{int(round(q * 100))}"] = float(np.quantile(vals, q))
        out[key] = entry
    return out


@dataclass
class EnsembleResult:
    """What :func:`run_ensemble` hands back, in catalog order."""

    report: object  # CampaignReport
    specs: list
    fingerprints: list
    results: list = field(default_factory=list)  # per-scenario result payloads
    statistics: dict = field(default_factory=dict)

    @property
    def summaries(self) -> list:
        return [dict(r["summary"]) for r in self.results]


def run_ensemble(
    base,
    distributions: Mapping,
    n: int,
    store_dir: str,
    *,
    seed: int = 0,
    workers: int | None = None,
    throttle: float = 0.0,
) -> EnsembleResult:
    """Draw ``n`` scenarios and run them as one campaign.

    One call = the whole ensemble: :func:`draw_specs` builds the
    catalog, :func:`repro.campaign.run_campaign` shards it across the
    worker pool with fingerprint dedupe and crash-safe resume, and the
    per-scenario summaries are reduced to :func:`ensemble_statistics`.
    Rerunning the same call against the same ``store_dir`` is all
    cache hits.
    """
    from ..campaign.fingerprint import scenario_fingerprint_hex
    from ..campaign.runner import run_campaign
    from ..campaign.store import ResultStore

    specs = draw_specs(base, distributions, n, seed=seed)
    report = run_campaign(specs, store_dir, workers=workers, throttle=throttle)
    by_fp = ResultStore(store_dir).load_results()
    fingerprints = [scenario_fingerprint_hex(s) for s in specs]
    results = [by_fp[fp]["result"] for fp in fingerprints if fp in by_fp]
    stats = ensemble_statistics([r["summary"] for r in results])
    return EnsembleResult(report=report, specs=specs, fingerprints=fingerprints,
                          results=results, statistics=stats)
