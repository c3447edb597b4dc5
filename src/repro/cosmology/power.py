"""Linear matter power spectrum: BBKS transfer function + sigma8 norm.

The initial conditions of Section 4.3 ("gravitational collapse of
primordial density fluctuations") start from a linear CDM spectrum.
The Bardeen-Bond-Kaiser-Szalay (BBKS) transfer function with the
Sugiyama baryon correction is the classic analytic form the early HOT
cosmology runs used; amplitude is fixed by sigma8 through the top-hat
variance integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .background import Cosmology, LCDM, gauss_legendre

__all__ = ["PowerSpectrum", "bbks_transfer", "tophat_window"]

#: Cosmologies whose shape and sigma8 amplitude are kept per process:
#: every ``PowerSpectrum`` of one cosmology shares one quadrature.
NORM_MEMO_SIZE = 32

#: The top-hat variance integrates over ``ln k`` in [ln 1e-5, ln 1e3] on
#: this many equal panels: narrow enough to resolve ``W(kR)^2``'s
#: oscillation wherever its envelope ``(kR)^-4`` still matters at 1e-10.
TOPHAT_PANELS = 256


def bbks_transfer(k: np.ndarray, gamma: float) -> np.ndarray:
    """BBKS CDM transfer function; ``k`` in h/Mpc, ``gamma`` the shape.

    T(q) with q = k / Gamma, the standard fit accurate to a few percent
    over the scales N-body simulations resolve.
    """
    k = np.asarray(k, dtype=np.float64)
    if np.any(k < 0):
        raise ValueError("wavenumbers must be non-negative")
    if gamma <= 0:
        raise ValueError("shape parameter must be positive")
    q = np.maximum(k, 1e-30) / gamma
    t = (
        np.log(1.0 + 2.34 * q)
        / (2.34 * q)
        * (1.0 + 3.89 * q + (16.1 * q) ** 2 + (5.46 * q) ** 3 + (6.71 * q) ** 4) ** -0.25
    )
    return np.where(k > 0, t, 1.0)


def tophat_window(x: np.ndarray) -> np.ndarray:
    """Fourier transform of the real-space top-hat, W(x) = 3 j1(x)/x."""
    x = np.asarray(x, dtype=np.float64)
    small = np.abs(x) < 1e-4
    safe = np.where(small, 1.0, x)
    w = 3.0 * (np.sin(safe) - safe * np.cos(safe)) / safe**3
    return np.where(small, 1.0 - x**2 / 10.0, w)


def _unnormalized(k: np.ndarray, n_s: float, gamma: float) -> np.ndarray:
    k = np.asarray(k, dtype=np.float64)
    return k**n_s * bbks_transfer(k, gamma) ** 2


def _tophat_variance(n_s: float, gamma: float, norm: float, r_mpc_h: float) -> float:
    """sigma^2(R) today of the spectrum ``norm * k^n_s T(k)^2``."""

    def integrand(lnk: np.ndarray) -> np.ndarray:
        k = np.exp(lnk)
        return (k**3 * norm * _unnormalized(k, n_s, gamma)
                * tophat_window(k * r_mpc_h) ** 2 / (2.0 * np.pi**2))

    return gauss_legendre(integrand, np.log(1e-5), np.log(1e3), TOPHAT_PANELS)


@lru_cache(maxsize=NORM_MEMO_SIZE)
def _shape_and_norm(cosmo: Cosmology) -> tuple[float, float]:
    """``(Gamma, amplitude)``: the amplitude makes sigma(8 Mpc/h) = sigma8 today."""
    # Sugiyama (1995) shape parameter with baryon correction.
    gamma = cosmo.omega_m * cosmo.h * np.exp(
        -cosmo.omega_b * (1.0 + np.sqrt(2.0 * cosmo.h) / cosmo.omega_m)
    )
    unit = _tophat_variance(cosmo.n_s, gamma, 1.0, 8.0)
    return gamma, (cosmo.sigma8 / np.sqrt(unit)) ** 2


@dataclass
class PowerSpectrum:
    """sigma8-normalized linear P(k) for a cosmology.

    Units: k in h/Mpc, P in (Mpc/h)^3.  ``at_redshift`` scales the
    amplitude with the growth factor squared.
    """

    cosmology: Cosmology = LCDM

    def __post_init__(self) -> None:
        self.gamma, self._norm = _shape_and_norm(self.cosmology)

    def unnormalized(self, k: np.ndarray) -> np.ndarray:
        return _unnormalized(k, self.cosmology.n_s, self.gamma)

    def __call__(self, k: np.ndarray, a: float = 1.0) -> np.ndarray:
        """P(k, a) in (Mpc/h)^3."""
        d = self.cosmology.growth_factor(a)
        return self._norm * self.unnormalized(k) * d * d

    def sigma_r(self, r_mpc_h: float, a: float = 1.0) -> float:
        """Top-hat variance sigma^2(R) (so sigma8^2 at R=8)."""
        if r_mpc_h <= 0:
            raise ValueError("radius must be positive")
        d = self.cosmology.growth_factor(a)
        val = _tophat_variance(self.cosmology.n_s, self.gamma, self._norm, r_mpc_h)
        return val * d * d
