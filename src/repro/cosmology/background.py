"""FRW background cosmology: expansion history and linear growth.

The paper's simulations are flat LCDM ("the parameters describing the
large-scale Universe are now known to extraordinary precision" —
Section 4.3; WMAP-era values are the defaults here).  This module
provides the Hubble rate, time-redshift relations, and the linear
growth factor used by the initial-conditions generator and by the
Zel'dovich validation tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["Cosmology", "LCDM", "EDS"]

#: Growth integrals kept per process: an ensemble asks for the same few
#: ``(cosmology, a)`` in every scenario.
GROWTH_MEMO_SIZE = 128

#: Nodes and weights of the 32-point Gauss–Legendre rule on [-1, 1].
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)

#: The time and growth integrals run over ``ln a`` in ``[ln a - LN_A_SPAN,
#: ln a]``: below that the integrands (``~ a^1.5`` and ``~ a^2.5``) leave
#: less than ``e^-45`` of the integral, so this is the integral from 0.
LN_A_SPAN = 30.0
LN_A_PANELS = 10


def gauss_legendre(f, lo: float, hi: float, panels: int) -> float:
    """``int_lo^hi f(x) dx`` by the 32-point Gauss–Legendre rule on
    ``panels`` equal panels; ``f`` maps an array of abscissae to values."""
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    x = edges[:-1, None] + half * (1.0 + _GL_NODES)
    return float(np.sum(half * _GL_WEIGHTS * f(x)))


@dataclass(frozen=True)
class Cosmology:
    """Flat FRW cosmology (curvature = 1 - Om - Ol fixed to 0 here)."""

    h: float = 0.7  # H0 / (100 km/s/Mpc)
    omega_m: float = 0.3
    omega_l: float = 0.7
    omega_b: float = 0.045
    n_s: float = 1.0
    sigma8: float = 0.9

    def __post_init__(self) -> None:
        if self.h <= 0 or self.omega_m <= 0 or self.sigma8 <= 0:
            raise ValueError("h, omega_m, sigma8 must be positive")
        if abs(self.omega_m + self.omega_l - 1.0) > 1e-8:
            raise ValueError("only flat cosmologies are supported")
        if not 0 <= self.omega_b < self.omega_m:
            raise ValueError("omega_b must be within omega_m")

    # -- expansion ------------------------------------------------------
    def e_of_a(self, a: np.ndarray | float) -> np.ndarray | float:
        """H(a) / H0 for flat LCDM."""
        a = np.asarray(a, dtype=np.float64)
        if np.any(a <= 0):
            raise ValueError("scale factor must be positive")
        out = np.sqrt(self.omega_m / a**3 + self.omega_l)
        return float(out) if out.ndim == 0 else out

    def hubble_time_gyr(self) -> float:
        """1/H0 in Gyr."""
        return 9.778 / self.h

    def omega_m_of_a(self, a: float) -> float:
        e2 = self.omega_m / a**3 + self.omega_l
        return self.omega_m / (a**3 * e2)

    def age_gyr(self, a: float = 1.0) -> float:
        """Cosmic time at scale factor ``a`` (flat LCDM integral)."""
        if a <= 0:
            raise ValueError("scale factor must be positive")
        # dt = da / (a H) = d(ln a) / H
        lna = math.log(a)
        t = gauss_legendre(lambda x: 1.0 / self.e_of_a(np.exp(x)),
                           lna - LN_A_SPAN, lna, LN_A_PANELS)
        return t * self.hubble_time_gyr()

    def lookback_gyr(self, z: float) -> float:
        """Lookback time to redshift ``z`` (Fig 7's "3.5 billion years
        prior to the present epoch" at z = 0.3)."""
        if z < 0:
            raise ValueError("redshift must be non-negative")
        return self.age_gyr(1.0) - self.age_gyr(1.0 / (1.0 + z))

    # -- growth ----------------------------------------------------------
    def growth_factor(self, a: float) -> float:
        """Linear growth D(a), normalized so D(1) = 1.

        The standard integral ``D ~ H(a) * int da' / (a' H(a'))^3``.
        """
        if not 0 < a < math.inf:  # false for nan too: keep it out of the memo
            raise ValueError(f"scale factor a must be positive and finite, got {a!r}")
        d = self.e_of_a(a) * _growth_integral(self, a)
        d1 = self.e_of_a(1.0) * _growth_integral(self, 1.0)
        return d / d1

    def growth_rate(self, a: float) -> float:
        """f = dlnD/dlna, well approximated by Omega_m(a)^0.55."""
        return self.omega_m_of_a(a) ** 0.55


@lru_cache(maxsize=GROWTH_MEMO_SIZE)
def _growth_integral(cosmology: Cosmology, upper: float) -> float:
    """``int_0^upper da' / (a' E(a'))^3``, the quadrature of ``growth_factor``,
    taken in ``ln a'`` (``da' = a' d(ln a')``)."""
    lna = math.log(upper)

    def integrand(x):
        a = np.exp(x)
        return 1.0 / (a * a * cosmology.e_of_a(a) ** 3)

    return gauss_legendre(integrand, lna - LN_A_SPAN, lna, LN_A_PANELS)


#: WMAP-era concordance cosmology, the paper's working model.
LCDM = Cosmology()

#: Einstein-de Sitter: the analytic playground (D = a exactly).
EDS = Cosmology(h=0.7, omega_m=1.0, omega_l=0.0, omega_b=0.045, sigma8=0.9)
