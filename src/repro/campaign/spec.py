"""Scenario specs: the request language of the campaign engine.

A campaign is a catalog of *scenario specs* — frozen dataclasses that
say exactly what to simulate and nothing about how.  Three kinds map
onto the paper's three workload families:

* :class:`CosmologySpec` — a Zel'dovich-seeded PM comoving run
  (Section 4.3), executed by
  :func:`repro.cosmology.simulation.run_campaign_scenario`;
* :class:`SupernovaSpec` — a rotating core-collapse progenitor
  (Section 4.4), executed by
  :func:`repro.sph.collapse.run_campaign_scenario`;
* :class:`ClusterSpec` — a cluster configuration evaluated under the
  Section 2.1 checkpoint economics, executed by
  :func:`repro.cluster.checkpoint.run_campaign_scenario`.

A fourth kind makes the benchmark suite itself campaign work:
:class:`BenchSpec` names one ``benchmarks/bench_*.py`` entry point
(plus its smoke/full parameterization) and is executed by
:func:`repro.obs.fleet.run_bench_scenario` — which is how the fleet
runner (`python -m repro.obs fleet`) inherits dedupe, crash-safe
resume, and the worker pool for free.

A fifth kind chains the workload families end to end:
:class:`PipelineSpec` parameterizes the full "supernovae to cosmology"
observable pipeline (ICs → structure formation → FoF halos → P(k) →
SPH core collapse) and is executed by
:func:`repro.pipeline.driver.run_campaign_scenario`, emitting the
typed products of :mod:`repro.pipeline.products`.

Every spec round-trips through plain JSON dicts (``to_dict`` /
:func:`spec_from_dict`), which is what makes scenarios
content-addressable: the canonical encoding of that dict *is* the
scenario's identity (see :mod:`repro.campaign.fingerprint`).  Specs
are pure data — ``run()`` dispatches to the owning subsystem's entry
point, and every entry point returns JSON scalars only, so results are
bit-comparable across processes and machines.

:func:`sweep` builds catalogs: the cartesian product of parameter
lists over a base spec, the campaign analogue of SNTD-style templated
batch jobs.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

from .fingerprint import _digest

#: Field -> (the range its run needs, as a test and in words), applied
#: by every spec that has the field: a spec the run would reject is
#: refused here, before it is fingerprinted or dispatched.
_FIELD_RANGES = {
    "box_mpc_h": (lambda v: v > 0, "positive"),
    "h": (lambda v: v > 0, "positive"),
    "omega_m": (lambda v: v > 0, "positive"),
    "sigma8": (lambda v: v > 0, "positive"),
    "omega0": (lambda v: v >= 0, "non-negative"),
    "r0": (lambda v: v > 0, "positive"),
    "n_target_neighbors": (lambda v: v >= 1, "at least 1"),
}

__all__ = [
    "ScenarioSpec",
    "CosmologySpec",
    "SupernovaSpec",
    "ClusterSpec",
    "BenchSpec",
    "PipelineSpec",
    "SPEC_KINDS",
    "spec_from_dict",
    "load_catalog",
    "save_catalog",
    "sweep",
]


@dataclass(frozen=True)
class ScenarioSpec:
    """Base scenario: one unit of campaign work, pure data.

    Subclasses set ``kind`` (the registry key in :data:`SPEC_KINDS`)
    and implement :meth:`_entry_point`.  Frozen so a spec can be a dict
    key and so its :attr:`fingerprint` cannot drift after catalog
    admission: it is computed once per object, at its first read.
    """

    kind = "abstract"
    #: Modules a shard of this kind imports only while it runs (inside
    #: functions, or through numpy's lazy submodules), so importing the
    #: entry point does not bring them in.  ``tests/test_campaign_preload.py``
    #: fails when a run imports one that is not listed.
    _lazy_modules = ()

    def __post_init__(self) -> None:
        """Fields hold finite JSON scalars, a string only where the
        default is one (subclasses call this first): so ``to_dict`` can
        hand them out without copying, the fingerprint can encode them,
        and the range checks compare numbers.  A field named in
        :data:`_FIELD_RANGES` must lie in its range."""
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            scalar = isinstance(value, (bool, int, str)) or (
                isinstance(value, float) and math.isfinite(value))
            where = f"{type(self).__name__}.{f.name}"
            if scalar and isinstance(value, str) == isinstance(f.default, str):
                ok, want = _FIELD_RANGES.get(f.name, (None, ""))
                if ok is None or ok(value):
                    continue
                raise ValueError(f"{where} must be {want}, got {value!r}")
            if not scalar:
                got = repr(value) if isinstance(value, float) else type(value).__name__
                raise ValueError(f"{where} must be a finite JSON scalar, got {got}")
            want = "string" if isinstance(f.default, str) else "number"
            raise ValueError(f"{where} must be a {want}, got {value!r}")

    def to_dict(self) -> dict:
        """JSON-ready dict carrying ``kind`` plus every parameter."""
        d = {"kind": self.kind}
        d.update({f.name: getattr(self, f.name) for f in dataclasses.fields(self)})
        return d

    @functools.cached_property
    def fingerprint(self) -> bytes:
        """16-byte content digest of the canonical JSON of ``to_dict()``
        (see :mod:`repro.campaign.fingerprint`).  Kept in the instance
        ``__dict__``, not a field: equality, hashing, ``repr`` and
        ``to_dict`` never see it, and ``dataclasses.replace`` builds a
        new object that computes its own."""
        return _digest(self.to_dict())

    @classmethod
    def from_dict(cls, d: Mapping) -> "ScenarioSpec":
        params = {k: v for k, v in d.items() if k != "kind"}
        return cls(**params)

    @staticmethod
    def _entry_point() -> Callable[[Mapping], dict]:
        raise NotImplementedError

    @classmethod
    def preload(cls) -> None:
        """Import everything :meth:`run` would.  The campaign coordinator
        calls this before its pool forks, so the workers inherit the
        modules instead of each importing them again."""
        cls._entry_point()
        for name in cls._lazy_modules:
            importlib.import_module(name)

    def run(self) -> dict:
        """Execute the scenario; returns JSON scalars only."""
        params = self.to_dict()
        params.pop("kind")
        return self._entry_point()(params)


@dataclass(frozen=True)
class CosmologySpec(ScenarioSpec):
    """One LCDM PM-cosmology realization (Section 4.3 workload)."""

    kind = "cosmology"
    _lazy_modules = ("numpy.fft", "numpy.random")

    n_side: int = 4
    a_start: float = 0.05
    a_final: float = 0.2
    dlna: float = 0.05
    seed: int = 20031115
    box_mpc_h: float = 125.0
    h: float = 0.7
    omega_m: float = 0.3
    omega_l: float = 0.7
    omega_b: float = 0.045
    n_s: float = 1.0
    sigma8: float = 0.9

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.n_side < 2:
            raise ValueError("n_side must be >= 2")
        if not 0 < self.a_start < self.a_final:
            raise ValueError("need 0 < a_start < a_final")
        if self.dlna <= 0:
            raise ValueError("dlna must be positive")

    @staticmethod
    def _entry_point():
        from ..cosmology.simulation import run_campaign_scenario

        return run_campaign_scenario


@dataclass(frozen=True)
class SupernovaSpec(ScenarioSpec):
    """One rotating core-collapse progenitor (Section 4.4 workload)."""

    kind = "supernova"
    _lazy_modules = ("numpy.random", "numpy.ma")

    n_particles: int = 48
    n_steps: int = 3
    n_poly: float = 3.0
    seed: int = 20031115
    omega0: float = 0.3
    r0: float = 0.3
    pressure_deficit: float = 0.55
    n_target_neighbors: int = 12
    with_neutrinos: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.n_particles < 8:
            raise ValueError("n_particles must be >= 8")
        if self.n_steps < 0:
            raise ValueError("n_steps must be non-negative")
        if not 0 < self.pressure_deficit <= 1:
            raise ValueError("pressure_deficit must be in (0, 1]")

    @staticmethod
    def _entry_point():
        from ..sph.collapse import run_campaign_scenario

        return run_campaign_scenario


@dataclass(frozen=True)
class ClusterSpec(ScenarioSpec):
    """One cluster configuration under checkpoint economics (Sec 2.1)."""

    kind = "cluster"

    n_nodes: int = 294
    work_hours: float = 24.0
    state_gb_per_node: float = 6.0
    restart_hours: float = 0.5

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if self.work_hours <= 0 or self.state_gb_per_node <= 0:
            raise ValueError("work_hours and state_gb_per_node must be positive")
        if self.restart_hours < 0:
            raise ValueError("restart_hours must be non-negative")

    @staticmethod
    def _entry_point():
        from ..cluster.checkpoint import run_campaign_scenario

        return run_campaign_scenario


@dataclass(frozen=True)
class BenchSpec(ScenarioSpec):
    """One ``benchmarks/bench_<bench>.py`` run as a campaign shard.

    ``bench`` is the module stem (``fig7_cosmology``), ``smoke``
    selects the CI-budget parameterization every bench must declare
    (see :func:`repro.obs.fleet.build_registry`).  The result is the
    bench's own schema-validated record, so a fleet campaign's store is
    a machine-readable performance study.
    """

    kind = "bench"

    bench: str = ""
    smoke: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        import re

        if not re.fullmatch(r"[a-z0-9][a-z0-9_]*", self.bench or ""):
            raise ValueError(
                f"bench must be a bench module stem like 'fig7_cosmology', "
                f"got {self.bench!r}"
            )

    @staticmethod
    def _entry_point():
        from ..obs.fleet import run_bench_scenario

        return run_bench_scenario


@dataclass(frozen=True)
class PipelineSpec(ScenarioSpec):
    """One end-to-end pipeline scenario: ICs → structure → halos →
    P(k) → core collapse, in a single campaign shard.

    The cosmology half defaults to the cheapest box that actually
    forms FoF halos under Zel'dovich + PM (``n_side=12`` to ``a=0.77``
    — smaller lattices stay too coherent to shell-cross); the
    supernova half matches :class:`SupernovaSpec`'s small rotating
    progenitor, its seed chained from the upstream halo catalog (see
    :func:`repro.pipeline.stages.chain_seed`).  Executed by
    :func:`repro.pipeline.driver.run_campaign_scenario`; the result
    payload carries a flat ``summary`` plus the nested ``products``.

    >>> PipelineSpec().to_dict()["kind"]
    'pipeline'
    >>> PipelineSpec(n_side=8, a_final=0.3).n_side
    8
    """

    kind = "pipeline"
    # What the stage functions of ``pipeline/stages.py`` import when
    # called: the package imports nothing of the physics it drives.
    _lazy_modules = SupernovaSpec._lazy_modules + (
        "numpy.fft", "repro.cosmology.background", "repro.cosmology.ics",
        "repro.cosmology.simulation", "repro.cosmology.fof",
        "repro.cosmology.correlation", "repro.sph.collapse",
    )

    # -- cosmology box (Fig-7 workload) ---------------------------------
    n_side: int = 12
    box_mpc_h: float = 125.0
    a_start: float = 0.1
    a_final: float = 0.77
    dlna: float = 0.1
    k_cut_fraction: float = 1.0
    seed: int = 20031115
    h: float = 0.7
    omega_m: float = 0.3
    omega_l: float = 0.7
    omega_b: float = 0.045
    n_s: float = 1.0
    sigma8: float = 0.9
    # -- halo catalog / power spectrum ----------------------------------
    linking_length: float = 0.25
    min_members: int = 2
    pk_bins: int = 6
    # -- supernova progenitor (Fig-8 workload) --------------------------
    sn_particles: int = 32
    sn_steps: int = 3
    n_poly: float = 3.0
    omega0: float = 0.3
    r0: float = 0.3
    pressure_deficit: float = 0.55
    n_target_neighbors: int = 12
    with_neutrinos: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.n_side < 4:
            raise ValueError("n_side must be >= 4 (the IC grid floor)")
        if not 0 < self.a_start < self.a_final:
            raise ValueError("need 0 < a_start < a_final")
        if self.dlna <= 0:
            raise ValueError("dlna must be positive")
        if not 0 < self.k_cut_fraction <= 1:
            raise ValueError("k_cut_fraction must be in (0, 1]")
        if self.linking_length <= 0 or self.min_members < 1:
            raise ValueError("need linking_length > 0 and min_members >= 1")
        if self.pk_bins < 2:
            raise ValueError("pk_bins must be >= 2")
        if self.sn_particles < 8:
            raise ValueError("sn_particles must be >= 8")
        if self.sn_steps < 1:
            raise ValueError("sn_steps must be >= 1")
        if not 0 < self.pressure_deficit <= 1:
            raise ValueError("pressure_deficit must be in (0, 1]")

    @staticmethod
    def _entry_point():
        from ..pipeline.driver import run_campaign_scenario

        return run_campaign_scenario


SPEC_KINDS: dict[str, type[ScenarioSpec]] = {
    cls.kind: cls
    for cls in (CosmologySpec, SupernovaSpec, ClusterSpec, BenchSpec, PipelineSpec)
}


def spec_from_dict(d: Mapping) -> ScenarioSpec:
    """Rebuild a spec from its JSON dict (inverse of ``to_dict``).

    Key order in ``d`` is irrelevant — identity is content, not
    encoding (the fingerprint property suite pins this).
    """
    if not isinstance(d, Mapping):
        raise TypeError("scenario must be a ScenarioSpec or a mapping with 'kind', "
                        f"got {type(d).__name__}")
    kind = d.get("kind")
    if kind not in SPEC_KINDS:
        raise ValueError(f"unknown scenario kind {kind!r}; known: {sorted(SPEC_KINDS)}")
    return SPEC_KINDS[kind].from_dict(d)


def as_spec(obj: ScenarioSpec | Mapping) -> ScenarioSpec:
    """Coerce a spec object or its dict form to a spec object."""
    if isinstance(obj, ScenarioSpec):
        return obj
    return spec_from_dict(obj)


def load_catalog(path: str) -> list[ScenarioSpec]:
    """Read a JSONL catalog: one spec dict per line, blanks ignored."""
    specs: list[ScenarioSpec] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                specs.append(spec_from_dict(json.loads(line)))
            except (json.JSONDecodeError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: bad catalog line: {exc}") from exc
    return specs


def save_catalog(specs: Iterable[ScenarioSpec | Mapping], path: str) -> str:
    """Write a JSONL catalog atomically (temp file + rename)."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        for spec in specs:
            fh.write(json.dumps(as_spec(spec).to_dict(), sort_keys=True) + "\n")
    os.replace(tmp, path)
    return path


def sweep(base: ScenarioSpec, **grid: Iterable) -> Iterator[ScenarioSpec]:
    """Cartesian-product catalog builder.

    Yields one spec per combination of the keyword lists, applied over
    ``base`` with ``dataclasses.replace`` — so every yielded spec is
    validated by its ``__post_init__``.

    >>> list(sweep(ClusterSpec(), n_nodes=[64, 128]))[1].n_nodes
    128
    """
    names = sorted(grid)
    for combo in itertools.product(*(list(grid[name]) for name in names)):
        yield dataclasses.replace(base, **dict(zip(names, combo)))
