"""Particle-mesh gravity for periodic cosmological boxes.

The paper's production code is the treecode, but a periodic comoving
box needs periodic gravity; the classic companion is the FFT
particle-mesh solver (the original HOT handled periodicity with Ewald
sums — DESIGN.md records the substitution).  Cloud-in-cell deposit,
Poisson solve with the grid-corrected Green's function, spectral
gradient, and CIC force interpolation back to the particles; fully
vectorized.

The deposit and the interpolation read one **stencil**
(:func:`_cic_stencil`): the flat cell index and the weight of each of
the eight CIC corners of every particle, ``[8, N]`` each, corner-major
in the reference loops' order.  ``PMSolver.accelerations`` builds it
once a call and hands it to both halves, which sit at the same
positions; ``cic_deposit`` and ``cic_interpolate`` called alone build
their own.  The deposit is **one** ``bincount_sum`` (kernel backend,
:mod:`repro.core.backend`) over the flattened stencil:
``np.bincount`` and ``np.add.at`` both accumulate sequentially in input
order and the stencil keeps the reference's corner-major order, so it
is bit-identical to :func:`cic_deposit_reference`.  The interpolation
is one ``take`` from the flattened grid per corner, accumulated in the
reference order, so it is bit-identical to
:func:`cic_interpolate_reference` (both pinned by
``tests/test_cosmology_backend_differential.py``, the mesh forces also
by ``tests/test_pipeline_pins.py``).

The stencil reads positions as three contiguous rows, one per axis (a
copy of the transpose, not its stride-3 view), and wraps them into the
box with :func:`wrap_unit`, ``x - floor(x)``: the same bits as the
references' float ``np.mod(x, 1.0)`` at a fraction of its cost.  Every
periodic wrap in :mod:`repro.cosmology` goes through it except the two
kept oracles, :func:`_cic_corners` and ``fof._periodic_com``.  The
solver's three spectral gradient factors ``-1j * k`` are built once.

Units here are "box units": the box has side 1, total mass 1, and the
Poisson equation solved is ``del^2 phi = delta`` (density contrast
source); callers scale by the physical prefactor (see
``repro.cosmology.simulation``).
"""

from __future__ import annotations

import numpy as np

from ..core.backend import get_backend

__all__ = [
    "cic_deposit",
    "cic_deposit_reference",
    "cic_interpolate",
    "cic_interpolate_reference",
    "PMSolver",
]


def wrap_unit(x) -> np.ndarray:
    """``x`` wrapped into the unit box: ``np.mod(x, 1.0)`` bit for bit.

    Both are one rounding of the same exact value (``x - floor(x)`` is
    exact for ``x >= 0``; for negative ``x`` each rounds ``frac + 1``
    once), whole numbers give ``+0.0`` and NaN or +-inf give NaN, at a
    fraction of the float ``mod``'s cost (pinned by
    ``tests/test_cosmology_backend_differential.py``).
    """
    return x - np.floor(x)


def _cic_corners(positions: np.ndarray, grid: int):
    """CIC geometry of the references: wrapped lower/upper indices and fractions."""
    x = np.mod(positions, 1.0) * grid
    i0 = np.floor(x).astype(np.int64)
    f = x - i0
    i0 = np.mod(i0, grid)
    i1 = np.mod(i0 + 1, grid)
    return i0, i1, f


def _validate_deposit(positions, grid: int, weights=None):
    """``(positions, weights)`` as float arrays, or ``ValueError`` by name.

    A NaN coordinate would otherwise cast to a valid wrapped index and
    come back as a NaN cell or a silent ``0.0``.
    """
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise ValueError("positions must be (N, 3)")
    if grid < 2:
        raise ValueError("grid must be >= 2")
    if not np.isfinite(positions).all():
        raise ValueError("positions must be finite")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != positions.shape[:1]:
            raise ValueError("weights must have shape (N,)")
    return positions, weights


def _as_fields(field) -> tuple[np.ndarray, bool]:
    """``field`` as a ``(k, grid, grid, grid)`` stack, and whether it was one grid."""
    field = np.asarray(field)
    single = field.ndim == 3
    fields = field[None] if single else field
    if fields.ndim != 4 or len(set(fields.shape[1:])) != 1:
        raise ValueError("field must be (grid, grid, grid) or (k, grid, grid, grid)")
    return fields, single


def _cic_stencil(positions: np.ndarray, grid: int, weights: np.ndarray | None = None):
    """Flat cell indices and weights of the eight CIC corners: ``(idx[8, N], w[8, N])``.

    Corner-major in the reference loops' order (x outer, z inner), each
    weight the reference's product ``((weights * wx) * wy) * wz`` with
    ``weights`` left out when ``None`` (a factor of exactly ``1.0``), so
    one stencil serves a deposit and an interpolation at the same
    positions.  The wrap can round up to ``1.0``, so a lower index can
    be ``grid``: that and ``i0 + 1 == grid`` are the only values an
    integer ``mod`` would change.
    """
    x = wrap_unit(np.ascontiguousarray(positions.T))  # (3, N): a contiguous row per axis
    x *= grid
    i0 = np.floor(x).astype(np.int64)
    f = x - i0
    i0[i0 == grid] = 0
    i1 = i0 + 1
    i1[i1 == grid] = 0
    g = 1 - f
    idx = np.empty((8, positions.shape[0]), dtype=np.int64)
    w = np.empty(idx.shape)
    corner = 0
    for ix, wx in ((i0[0], g[0]), (i1[0], f[0])):
        if weights is not None:
            wx = weights * wx
        for iy, wy in ((i0[1], g[1]), (i1[1], f[1])):
            ixy, wxy = (ix * grid + iy) * grid, wx * wy
            for iz, wz in ((i0[2], g[2]), (i1[2], f[2])):
                np.add(ixy, iz, out=idx[corner])
                np.multiply(wxy, wz, out=w[corner])
                corner += 1
    return idx, w


def _deposit(idx: np.ndarray, w: np.ndarray, grid: int, kb) -> np.ndarray:
    """One ``bincount_sum`` over the corner-major stencil streams."""
    return kb.bincount_sum(idx.ravel(), w.ravel(), grid**3).reshape(grid, grid, grid)


def _interpolate(fields: np.ndarray, idx: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``(k, N)`` values of ``fields[k, grid, grid, grid]``, accumulated corner by corner."""
    flat = fields.reshape(fields.shape[0], -1)
    out = np.zeros((fields.shape[0], idx.shape[1]))
    for idx_c, w_c in zip(idx, w):
        out += np.take(flat, idx_c, axis=1) * w_c
    return out


def cic_deposit_reference(
    positions: np.ndarray, grid: int, weights: np.ndarray | None = None
) -> np.ndarray:
    """Cloud-in-cell deposit via eight ``np.add.at`` corner scatters.

    The historical implementation, kept as the differential-test anchor
    for :func:`cic_deposit`.
    """
    positions, weights = _validate_deposit(positions, grid, weights)
    if weights is None:
        weights = np.full(positions.shape[0], 1.0)
    i0, i1, f = _cic_corners(positions, grid)
    rho = np.zeros((grid, grid, grid))
    for dx, wx in ((i0[:, 0], 1 - f[:, 0]), (i1[:, 0], f[:, 0])):
        for dy, wy in ((i0[:, 1], 1 - f[:, 1]), (i1[:, 1], f[:, 1])):
            for dz, wz in ((i0[:, 2], 1 - f[:, 2]), (i1[:, 2], f[:, 2])):
                np.add.at(rho, (dx, dy, dz), weights * wx * wy * wz)
    return rho


def cic_deposit(
    positions: np.ndarray,
    grid: int,
    weights: np.ndarray | None = None,
    *,
    backend=None,
) -> np.ndarray:
    """Cloud-in-cell mass deposit onto a periodic grid (box side 1).

    Batched: the eight corner scatters of :func:`_cic_stencil` go,
    corner-major, into one backend ``bincount_sum``: bit-identical to
    :func:`cic_deposit_reference` because both accumulate the same
    addend sequence in the same order per cell.
    """
    positions, weights = _validate_deposit(positions, grid, weights)
    return _deposit(*_cic_stencil(positions, grid, weights), grid, get_backend(backend))


def cic_interpolate_reference(field: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """CIC interpolation via per-corner 3-axis fancy gathers.

    The historical implementation, kept as the anchor for
    :func:`cic_interpolate`.
    """
    fields, single = _as_fields(field)
    grid = fields.shape[1]
    positions, _ = _validate_deposit(positions, grid)
    i0, i1, f = _cic_corners(positions, grid)
    out = np.zeros((fields.shape[0], positions.shape[0]))
    for dx, wx in ((i0[:, 0], 1 - f[:, 0]), (i1[:, 0], f[:, 0])):
        for dy, wy in ((i0[:, 1], 1 - f[:, 1]), (i1[:, 1], f[:, 1])):
            for dz, wz in ((i0[:, 2], 1 - f[:, 2]), (i1[:, 2], f[:, 2])):
                w = wx * wy * wz
                out += fields[:, dx, dy, dz] * w
    return out[0] if single else out


def cic_interpolate(field: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """CIC interpolation of a grid field (or stacked fields) to points.

    ``field`` has shape (grid, grid, grid) or (k, grid, grid, grid).
    Batched: one flat-index ``take`` per corner of :func:`_cic_stencil`
    instead of a 3-axis fancy gather, accumulated in the reference
    corner order, so bit-identical to :func:`cic_interpolate_reference`.
    """
    fields, single = _as_fields(field)
    grid = fields.shape[1]
    positions, _ = _validate_deposit(positions, grid)
    out = _interpolate(fields, *_cic_stencil(positions, grid))
    return out[0] if single else out


class PMSolver:
    """FFT Poisson solver on a periodic unit box."""

    def __init__(self, grid: int = 64, deconvolve: bool = True, backend=None):
        if grid < 4:
            raise ValueError("grid must be >= 4")
        self.grid = grid
        self.backend = backend
        k1 = 2.0 * np.pi * np.fft.fftfreq(grid) * grid  # integer wavenumbers * 2pi
        kx, ky, kz = np.meshgrid(k1, k1, k1, indexing="ij")
        k2 = kx**2 + ky**2 + kz**2
        k2[0, 0, 0] = 1.0  # zero mode removed below
        self._grad = tuple(-1j * k for k in (kx, ky, kz))  # spectral d/dx, d/dy, d/dz
        self._inv_k2 = 1.0 / k2
        self._inv_k2[0, 0, 0] = 0.0
        if deconvolve:
            # CIC window: W(k) = prod sinc^2(k_i / (2 grid)).  Deposit
            # and interpolation each convolve once; compensate both so
            # mid-band forces are unbiased (standard PM practice).
            def sinc(x):
                return np.sinc(x / np.pi)  # np.sinc is sin(pi x)/(pi x)

            w = (
                sinc(kx / (2.0 * grid)) * sinc(ky / (2.0 * grid)) * sinc(kz / (2.0 * grid))
            ) ** 2
            self._decon = 1.0 / np.maximum(w, 0.3) ** 2
        else:
            self._decon = np.ones_like(k2)

    @staticmethod
    def _contrast(rho: np.ndarray) -> np.ndarray:
        mean = rho.mean()
        if mean == 0:
            raise ValueError("no mass deposited")
        return rho / mean - 1.0

    def density_contrast(self, positions: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        """CIC delta = rho/rho_bar - 1."""
        return self._contrast(cic_deposit(positions, self.grid, weights, backend=self.backend))

    def potential(self, delta: np.ndarray) -> np.ndarray:
        """Solve del^2 phi = delta (unit box, spectral)."""
        if delta.shape != (self.grid,) * 3:
            raise ValueError("delta grid shape mismatch")
        dk = np.fft.fftn(delta)
        phik = -dk * self._inv_k2
        return np.real(np.fft.ifftn(phik))

    def accelerations(self, positions: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        """g = -grad phi at the particles, for del^2 phi = delta.

        One CIC stencil serves the deposit and the interpolation back.
        """
        positions, weights = _validate_deposit(positions, self.grid, weights)
        idx, w = _cic_stencil(positions, self.grid)
        w_mass = w if weights is None else _cic_stencil(positions, self.grid, weights)[1]
        delta = self._contrast(_deposit(idx, w_mass, self.grid, get_backend(self.backend)))
        dk = np.fft.fftn(delta)
        phik = -dk * self._inv_k2 * self._decon
        acc_grids = np.empty((3, self.grid, self.grid, self.grid))
        for axis, grad in enumerate(self._grad):
            acc_grids[axis] = np.real(np.fft.ifftn(grad * phik))
        return _interpolate(acc_grids, idx, w).T.copy()
