"""Clustering statistics: two-point correlation and measured P(k).

The quantitative face of "galaxy formation and clustering" (Section
4.3): the two-point correlation function xi(r) by periodic pair counts
against the analytic random expectation, and the density power
spectrum measured from the particles on a grid (used to validate the
initial conditions against the input linear spectrum).

The binning hot loops route through the kernel backend.  Pair
counts are integers, and the ``searchsorted`` + ``bincount_sum`` fast
path assigns every separation to the same bin as ``np.histogram``
(including the closed last bin), so :func:`pair_counts_periodic` is
**bit-identical** to its reference.  The power-spectrum binner selects
the same mode set per bin (half-open bins on every bin, matching the
reference's strict ``<`` comparisons) but reduces each bin with a
sequential ``bincount_sum`` instead of ``np.mean``'s pairwise
summation, so its k/P values agree to ~1e-12 relative, not to the bit
— the tolerance ``tests/test_cosmology_backend_differential.py`` pins.
"""

from __future__ import annotations

import numpy as np

from ..core.backend import get_backend
from .pm import cic_deposit, wrap_unit

__all__ = [
    "pair_counts_periodic",
    "pair_counts_periodic_reference",
    "correlation_function",
    "measured_power_spectrum",
    "measured_power_spectrum_reference",
]


def _validate_pair_edges(positions, edges):
    positions = wrap_unit(np.asarray(positions, dtype=np.float64))
    edges = np.asarray(edges, dtype=np.float64)
    if np.any(np.diff(edges) <= 0) or edges[0] < 0:
        raise ValueError("edges must be increasing and non-negative")
    if edges[-1] > 0.5:
        raise ValueError("separations beyond box/2 are ambiguous on a torus")
    return positions, edges


def _block_separations(positions, lo, hi):
    """Unique-pair separations of block [lo, hi) against all j > i."""
    n = positions.shape[0]
    d = positions[lo:hi, None, :] - positions[None, :, :]
    d -= np.round(d)
    r = np.sqrt((d**2).sum(axis=2))
    jj = np.arange(n)[None, :].repeat(hi - lo, axis=0)
    ii = np.arange(lo, hi)[:, None].repeat(n, axis=1)
    return r[jj > ii]


def pair_counts_periodic_reference(
    positions: np.ndarray, edges: np.ndarray, block: int = 512
) -> np.ndarray:
    """Pair histogram via ``np.histogram`` — the differential anchor."""
    positions, edges = _validate_pair_edges(positions, edges)
    n = positions.shape[0]
    counts = np.zeros(edges.size - 1, dtype=np.int64)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        counts += np.histogram(_block_separations(positions, lo, hi), bins=edges)[0]
    return counts


def pair_counts_periodic(
    positions: np.ndarray,
    edges: np.ndarray,
    block: int = 512,
    *,
    backend=None,
) -> np.ndarray:
    """Histogram of unique pair separations on a periodic unit box.

    Batched: bin assignment by ``searchsorted`` (with ``np.histogram``'s
    closed last bin) and integer accumulation by backend
    ``bincount_sum`` — bit-identical counts to
    :func:`pair_counts_periodic_reference`.
    """
    positions, edges = _validate_pair_edges(positions, edges)
    n = positions.shape[0]
    kb = get_backend(backend)
    nbins = edges.size - 1
    counts = np.zeros(nbins, dtype=np.int64)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        r = _block_separations(positions, lo, hi)
        bi = np.searchsorted(edges, r, side="right") - 1
        bi[r == edges[-1]] = nbins - 1  # np.histogram closes the last bin
        bi = bi[(bi >= 0) & (bi < nbins)]
        counts += kb.bincount_sum(bi, None, nbins)
    return counts


def correlation_function(
    positions: np.ndarray, edges: np.ndarray, *, backend=None
) -> tuple[np.ndarray, np.ndarray]:
    """(bin centers, xi(r)) with the analytic-random (natural) estimator.

    On a periodic box the expected random pair count in a shell is
    exact — ``N(N-1)/2 * V_shell`` for a unit box — so xi = DD/RR - 1
    without generating randoms.
    """
    positions = np.asarray(positions, dtype=np.float64)
    n = positions.shape[0]
    dd = pair_counts_periodic(positions, edges, backend=backend)
    shell = 4.0 / 3.0 * np.pi * (edges[1:] ** 3 - edges[:-1] ** 3)
    rr = 0.5 * n * (n - 1) * shell
    centers = 0.5 * (edges[:-1] + edges[1:])
    xi = dd / rr - 1.0
    return centers, xi


def _power_modes(positions, grid, box_mpc_h, n_bins):
    """Shared mode measurement: (kmag, pk_flat, edges) for k > 0 modes."""
    positions = np.asarray(positions, dtype=np.float64)
    n = positions.shape[0]
    if grid < 4 or box_mpc_h <= 0 or n_bins < 2:
        raise ValueError("invalid measurement parameters")
    if n == 0:
        raise ValueError("no particles")
    rho = cic_deposit(positions, grid)
    delta = rho / rho.mean() - 1.0
    dk = np.fft.fftn(delta) / grid**3
    pk_grid = np.abs(dk) ** 2 * box_mpc_h**3
    kf = 2.0 * np.pi / box_mpc_h
    k1 = np.fft.fftfreq(grid) * grid * kf
    kx, ky, kz = np.meshgrid(k1, k1, k1, indexing="ij")
    kmag = np.sqrt(kx**2 + ky**2 + kz**2).ravel()
    pk_flat = pk_grid.ravel()
    keep = kmag > 0
    edges = np.linspace(kf, kf * grid / 2, n_bins + 1)
    return kmag[keep], pk_flat[keep], edges


def measured_power_spectrum_reference(
    positions: np.ndarray,
    grid: int = 32,
    box_mpc_h: float = 1.0,
    n_bins: int = 12,
    subtract_shot_noise: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """P(k) with a per-bin ``np.mean`` loop — the differential anchor."""
    n = np.asarray(positions).shape[0]
    kmag, pk_flat, edges = _power_modes(positions, grid, box_mpc_h, n_bins)
    k_out = np.zeros(n_bins)
    p_out = np.zeros(n_bins)
    shot = box_mpc_h**3 / n if subtract_shot_noise else 0.0
    for b in range(n_bins):
        sel = (kmag >= edges[b]) & (kmag < edges[b + 1])
        if np.any(sel):
            k_out[b] = kmag[sel].mean()
            p_out[b] = pk_flat[sel].mean() - shot
    good = k_out > 0
    return k_out[good], p_out[good]


def measured_power_spectrum(
    positions: np.ndarray,
    grid: int = 32,
    box_mpc_h: float = 1.0,
    n_bins: int = 12,
    subtract_shot_noise: bool = True,
    *,
    backend=None,
) -> tuple[np.ndarray, np.ndarray]:
    """(k, P(k)) from the CIC density of the particles.

    ``box_mpc_h`` scales the unit box to physical units so the result
    is directly comparable to the input linear spectrum.  Shot noise
    ``V/N`` is subtracted by default — turn that off for displaced-
    lattice particle loads, which are sub-Poisson by construction.

    Batched: one ``searchsorted`` bin assignment (half-open on every
    bin, matching the reference's strict upper comparisons — no closed
    last bin here) and backend ``bincount_sum`` reductions.  Same mode
    set per bin as :func:`measured_power_spectrum_reference`; values
    agree to summation-order tolerance (~1e-12 relative).
    """
    n = np.asarray(positions).shape[0]
    kmag, pk_flat, edges = _power_modes(positions, grid, box_mpc_h, n_bins)
    kb = get_backend(backend)
    nbins = n_bins
    bi = np.searchsorted(edges, kmag, side="right") - 1
    valid = (bi >= 0) & (bi < nbins)
    bi, kv, pv = bi[valid], kmag[valid], pk_flat[valid]
    cnt = kb.bincount_sum(bi, None, nbins)
    k_sum = kb.bincount_sum(bi, kv, nbins)
    p_sum = kb.bincount_sum(bi, pv, nbins)
    shot = box_mpc_h**3 / n if subtract_shot_noise else 0.0
    k_out = np.zeros(nbins)
    p_out = np.zeros(nbins)
    nonempty = cnt > 0
    k_out[nonempty] = k_sum[nonempty] / cnt[nonempty]
    p_out[nonempty] = p_sum[nonempty] / cnt[nonempty] - shot
    good = k_out > 0
    return k_out[good], p_out[good]
