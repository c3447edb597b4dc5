"""Zel'dovich initial conditions for cosmological boxes.

Generates a Gaussian random realization of the linear power spectrum
on a grid, derives the displacement field ``psi = -grad(phi)`` with
``del^2 phi = delta`` spectrally, and moves particles off a uniform
lattice by ``D(a) psi`` with velocities ``a H f D psi`` — the Zel'dovich
approximation, the standard starting point of every cosmological
N-body run of the paper's era.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .background import Cosmology, LCDM
from .pm import wrap_unit
from .power import PowerSpectrum

__all__ = ["InitialConditions", "zeldovich_ics", "gaussian_field"]


def _white_modes(grid: int, box_mpc_h: float, seed: int, k_cut_fraction: float):
    """``(wk, (kx, ky, kz), k, kf)``: the seeded unit-variance modes and
    the k-grid, shared by the fields of every scale factor of one seed."""
    if grid < 4 or box_mpc_h <= 0:
        raise ValueError("grid >= 4 and positive box size required")
    if not 0 < k_cut_fraction <= 1.0:
        raise ValueError("k_cut_fraction must be in (0, 1]")
    rng = np.random.default_rng(seed)
    kf = 2.0 * np.pi / box_mpc_h  # fundamental mode, h/Mpc
    k1 = np.fft.fftfreq(grid) * grid * kf
    kv = np.meshgrid(k1, k1, k1, indexing="ij")
    k = np.sqrt(kv[0]**2 + kv[1]**2 + kv[2]**2)
    # White Gaussian modes with Hermitian symmetry via real-field FFT.
    white = rng.standard_normal((grid, grid, grid))
    return np.fft.fftn(white) / grid**1.5, kv, k, kf


def _delta_k(modes, power: PowerSpectrum, a: float, k_cut_fraction: float) -> np.ndarray:
    """delta_k at scale factor ``a``: the modes scaled by sqrt(P k-volume)."""
    wk, _, k, kf = modes
    pk = power(np.maximum(k, 1e-10).ravel(), a).reshape(k.shape)
    pk[0, 0, 0] = 0.0
    pk[k > k_cut_fraction * (kf * k.shape[0] / 2.0)] = 0.0  # above the cut of Nyquist
    return wk * (np.sqrt(pk * (kf / (2.0 * np.pi)) ** 3) * k.shape[0]**3)


def _displacement(modes, dk: np.ndarray, box_mpc_h: float) -> np.ndarray:
    """psi_k = -i k / k^2 delta_k, converted to box units."""
    _, kv, k, _ = modes
    k2 = k**2
    k2[0, 0, 0] = 1.0
    return np.stack([np.real(np.fft.ifftn(1j * kx / k2 * dk)) / box_mpc_h for kx in kv])


def gaussian_field(
    grid: int,
    box_mpc_h: float,
    power: PowerSpectrum,
    a: float,
    seed: int,
    k_cut_fraction: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """(delta grid, displacement grids (3, n, n, n)) at scale factor a.

    The field is built in k-space with the correct reality symmetry
    (real ifft of unit Gaussian modes scaled by sqrt(P k-volume)).
    Displacements are in box units (box side = 1).

    ``k_cut_fraction`` zeroes modes above that fraction of the grid
    Nyquist — the standard IC hygiene that keeps all seeded power in
    the band where a PM integrator evolves it accurately.
    """
    modes = _white_modes(grid, box_mpc_h, seed, k_cut_fraction)
    dk = _delta_k(modes, power, a, k_cut_fraction)
    return np.real(np.fft.ifftn(dk)), _displacement(modes, dk, box_mpc_h)


@dataclass
class InitialConditions:
    """Particles ready for a comoving simulation (box units, side 1)."""

    positions: np.ndarray  # (N, 3) in [0, 1)
    velocities: np.ndarray  # (N, 3), dx/d(ln a) "displacement velocity"
    a_start: float
    box_mpc_h: float
    cosmology: Cosmology
    delta_grid: np.ndarray

    @property
    def n_particles(self) -> int:
        return self.positions.shape[0]

    def rms_displacement(self) -> float:
        """RMS Zel'dovich displacement in box units (sanity metric)."""
        lattice = _lattice(round(self.n_particles ** (1 / 3)))
        d = self.positions - lattice
        d -= np.round(d)  # periodic wrap
        return float(np.sqrt((d**2).sum(axis=1).mean()))


def _lattice(n_side: int) -> np.ndarray:
    g = (np.arange(n_side) + 0.5) / n_side
    return np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)


def zeldovich_ics(
    n_side: int = 16,
    box_mpc_h: float = 125.0,
    a_start: float = 0.05,
    cosmology: Cosmology = LCDM,
    seed: int = 20031115,
    k_cut_fraction: float = 1.0,
) -> InitialConditions:
    """Zel'dovich ICs for ``n_side**3`` particles.

    ``box_mpc_h`` defaults to the paper's 125 Mpc ("a portion of the
    Universe about 125 Megaparsecs on a side", Fig 7).  Velocities are
    stored as d(x)/d(ln a) in box units — the natural variable of the
    growth-factor leapfrog in :mod:`repro.cosmology.simulation`.
    """
    if n_side < 2:
        raise ValueError("n_side must be >= 2")
    if not 0 < a_start < 1:
        raise ValueError("a_start must be in (0, 1)")
    power = PowerSpectrum(cosmology)
    grid = n_side  # displacement grid matched to the particle lattice
    # One draw of the white modes serves psi at a=1 and delta at a_start.
    modes = _white_modes(grid, box_mpc_h, seed, k_cut_fraction)
    psi = _displacement(modes, _delta_k(modes, power, 1.0, k_cut_fraction), box_mpc_h)
    d = cosmology.growth_factor(a_start)
    f = cosmology.growth_rate(a_start)
    lattice = _lattice(n_side)
    # Interpolate psi at lattice points = grid points (1:1 mapping).
    disp = np.stack([psi[i].ravel() for i in range(3)], axis=1)
    positions = wrap_unit(lattice + d * disp)
    velocities = f * d * disp  # dx/dlna = f D psi
    delta = np.real(np.fft.ifftn(_delta_k(modes, power, a_start, k_cut_fraction)))
    return InitialConditions(positions, velocities, a_start, box_mpc_h, cosmology, delta)
