"""Parameter distributions: the sampling language of pipeline ensembles.

An ensemble is "the same scenario, many times, with parameters drawn
from user-supplied distributions" — the shape of SNTD's
``createMultiplyImagedSN`` exemplar, where each synthetic observable
is one draw from per-parameter priors.  Four kinds cover the useful
cases:

* :class:`Fixed` — every draw returns the same value (pin a knob);
* :class:`Uniform` — ``rng.uniform(low, high)``;
* :class:`Normal` — ``rng.normal(mean, sigma)``, optionally clipped to
  ``[low, high]`` so a physical bound (e.g. ``pressure_deficit <= 1``)
  can never be violated by a tail draw;
* :class:`Grid` — cycle deterministically through an explicit list
  (stratified coverage rather than random sampling).

Draws are *index-seeded*: :func:`draw_specs` gives scenario ``i`` its
own ``np.random.default_rng([seed, i])`` stream, so scenario ``i`` is
identical whether you draw 10 scenarios or 10 000 — which is what
makes a grown ensemble a superset of a smaller one, and what keeps the
campaign fingerprints of the shared prefix stable (dedupe and resume
hit across ensemble sizes).

Bad parameters are refused when a distribution is built, not when it
is drawn: a ``ValueError`` names the class and the field (a NaN sigma
would otherwise draw NaN, an infinite ``Uniform`` bound overflow inside
:func:`~repro.pipeline.draw_specs`).

Every distribution round-trips through plain JSON dicts
(``to_dict`` / :func:`distribution_from_dict`), mirroring
:mod:`repro.campaign.spec`.

>>> Grid(values=(1, 2, 3)).draw(None, 4)
2
>>> d = distribution_from_dict(Uniform(low=0.0, high=1.0).to_dict())
>>> d == Uniform(low=0.0, high=1.0)
True
>>> as_distribution(42)
Fixed(value=42)
>>> as_distribution([0.1, 0.2])
Grid(values=(0.1, 0.2))
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

__all__ = [
    "Distribution",
    "Fixed",
    "Uniform",
    "Normal",
    "Grid",
    "DISTRIBUTION_KINDS",
    "distribution_from_dict",
    "as_distribution",
]


def _is_real(value, finite: bool = False) -> bool:
    """A real number (not a bool), never NaN, finite when asked."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    return math.isfinite(value) if finite else not math.isnan(value)


def _require(dist, name: str, ok: bool, what: str) -> None:
    """Refuse a bad parameter when the distribution is built, naming it."""
    if not ok:
        raise ValueError(
            f"{type(dist).__name__}.{name} must be {what}, got {getattr(dist, name)!r}")


@dataclass(frozen=True)
class Distribution:
    """Base parameter distribution: pure data plus one ``draw``.

    Subclasses set ``kind`` (the registry key in
    :data:`DISTRIBUTION_KINDS`) and implement :meth:`draw`.  Frozen for
    the same reason scenario specs are: a distribution that appears in
    an ensemble definition must not drift after the fact.
    """

    kind = "abstract"

    def draw(self, rng: np.random.Generator, index: int) -> Any:
        """One value for scenario ``index`` from stream ``rng``."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        """JSON-ready dict carrying ``kind`` plus every parameter."""
        d = {"kind": self.kind}
        d.update(dataclasses.asdict(self))
        return d

    @classmethod
    def from_dict(cls, d: Mapping) -> "Distribution":
        params = {k: v for k, v in d.items() if k != "kind"}
        return cls(**params)


@dataclass(frozen=True)
class Fixed(Distribution):
    """Degenerate distribution: every draw is ``value``.

    >>> Fixed(value=0.3).draw(None, 7)
    0.3
    """

    kind = "fixed"

    value: Any = None

    def draw(self, rng, index):
        return self.value


@dataclass(frozen=True)
class Uniform(Distribution):
    """Uniform on ``[low, high)``.

    >>> rng = np.random.default_rng([0, 0])
    >>> 0.1 <= Uniform(low=0.1, high=0.5).draw(rng, 0) < 0.5
    True
    """

    kind = "uniform"

    low: float = 0.0
    high: float = 1.0

    def __post_init__(self):
        for name in ("low", "high"):
            _require(self, name, _is_real(getattr(self, name), finite=True), "finite")
        if not self.low < self.high:
            raise ValueError("need low < high")

    def draw(self, rng, index):
        return float(rng.uniform(self.low, self.high))


@dataclass(frozen=True)
class Normal(Distribution):
    """Gaussian ``N(mean, sigma)``, optionally clipped to ``[low, high]``.

    Clipping keeps tail draws inside a physical bound, so a spec's
    ``__post_init__`` validation can never reject a drawn scenario.

    >>> rng = np.random.default_rng([0, 0])
    >>> v = Normal(mean=0.5, sigma=10.0, low=0.0, high=1.0).draw(rng, 0)
    >>> 0.0 <= v <= 1.0
    True
    """

    kind = "normal"

    mean: float = 0.0
    sigma: float = 1.0
    low: float | None = None
    high: float | None = None

    def __post_init__(self):
        _require(self, "mean", _is_real(self.mean, finite=True), "finite")
        _require(self, "sigma", _is_real(self.sigma, finite=True) and self.sigma >= 0,
                 "finite and non-negative")
        for name in ("low", "high"):  # an infinite bound is no bound, NaN is a mistake
            value = getattr(self, name)
            _require(self, name, value is None or _is_real(value), "a number or None")
        if self.low is not None and self.high is not None and self.low > self.high:
            raise ValueError("need low <= high")

    def draw(self, rng, index):
        v = float(rng.normal(self.mean, self.sigma))
        if self.low is not None:
            v = max(v, self.low)
        if self.high is not None:
            v = min(v, self.high)
        return v


@dataclass(frozen=True)
class Grid(Distribution):
    """Cycle through explicit values by scenario index (no randomness).

    Scenario ``i`` gets ``values[i % len(values)]`` — stratified
    coverage that pairs naturally with a random distribution on another
    parameter.

    >>> Grid(values=("a", "b")).draw(None, 3)
    'b'
    """

    kind = "grid"

    values: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError("Grid needs at least one value")

    def draw(self, rng, index):
        return self.values[index % len(self.values)]

    @classmethod
    def from_dict(cls, d: Mapping) -> "Grid":
        return cls(values=tuple(d["values"]))


DISTRIBUTION_KINDS: dict[str, type[Distribution]] = {
    cls.kind: cls for cls in (Fixed, Uniform, Normal, Grid)
}


def distribution_from_dict(d: Mapping) -> Distribution:
    """Rebuild a distribution from its JSON dict (inverse of ``to_dict``)."""
    kind = d.get("kind")
    if kind not in DISTRIBUTION_KINDS:
        raise ValueError(
            f"unknown distribution kind {kind!r}; known: {sorted(DISTRIBUTION_KINDS)}"
        )
    return DISTRIBUTION_KINDS[kind].from_dict(d)


def as_distribution(obj) -> Distribution:
    """Coerce shorthand to a distribution.

    A :class:`Distribution` passes through; a dict is decoded; a list
    or tuple becomes a :class:`Grid`; any other scalar becomes
    :class:`Fixed`.
    """
    if isinstance(obj, Distribution):
        return obj
    if isinstance(obj, Mapping):
        return distribution_from_dict(obj)
    if isinstance(obj, (list, tuple)):
        return Grid(values=tuple(obj))
    return Fixed(value=obj)
