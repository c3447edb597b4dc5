"""Regularized Biot-Savart evaluation: direct and tree-accelerated.

Section 4.1: *"Using a generic design, we have implemented a variety
of modules to solve problems in galactic dynamics and cosmology as
well as fluid-dynamical problems using smoothed particle
hydrodynamics, a vortex particle method and boundary integral
methods."*  This module is the vortex-particle instantiation of that
generic design: the *same* hashed oct-tree, MAC, and group-walk
machinery as gravity, evaluating

.. math::

    u(x) = -\\frac{1}{4\\pi} \\sum_p K_\\sigma(|x - x_p|)\\,
           (x - x_p) \\times \\alpha_p

with the Winckelmans-Leonard high-order algebraic smoothing

.. math::

    K_\\sigma(r) = \\frac{r^2 + \\tfrac{5}{2}\\sigma^2}
                       {(r^2 + \\sigma^2)^{5/2}}

(the kernel of reference [9] of the paper, whose authors include
Winckelmans and Warren).  Far-field cells are approximated by their
total circulation vector at the circulation-weighted centroid — the
vector analogue of the gravity monopole.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.mac import OpeningAngleMAC
from ..core.traversal import build_interaction_lists
from ..core.tree import Tree, build_tree

__all__ = ["VortexSystem", "direct_velocities", "tree_velocities", "wl_kernel"]

_INV_4PI = 1.0 / (4.0 * np.pi)


def wl_kernel(r2: np.ndarray, sigma: float) -> np.ndarray:
    """Winckelmans-Leonard K_sigma as a function of r^2."""
    if sigma < 0:
        raise ValueError("core radius must be non-negative")
    s2 = sigma * sigma
    return (r2 + 2.5 * s2) / np.power(r2 + s2, 2.5)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product along the last axis (explicit, fast for (N,3))."""
    out = np.empty(np.broadcast(a, b).shape)
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


def direct_velocities(
    positions: np.ndarray,
    alphas: np.ndarray,
    targets: np.ndarray | None = None,
    *,
    sigma: float = 0.05,
    block: int = 512,
) -> np.ndarray:
    """O(N M) regularized Biot-Savart sum (the reference evaluation)."""
    positions = np.ascontiguousarray(positions, dtype=np.float64)
    alphas = np.ascontiguousarray(alphas, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 3 or alphas.shape != positions.shape:
        raise ValueError("positions and alphas must both be (N, 3)")
    targets = positions if targets is None else np.ascontiguousarray(targets, dtype=np.float64)
    out = np.zeros((targets.shape[0], 3))
    for lo in range(0, targets.shape[0], block):
        hi = min(lo + block, targets.shape[0])
        dr = targets[lo:hi, None, :] - positions[None, :, :]
        r2 = np.einsum("ijk,ijk->ij", dr, dr)
        k = wl_kernel(r2, sigma)
        out[lo:hi] = -_INV_4PI * np.einsum("ij,ijk->ik", k, _cross(dr, alphas[None, :, :]))
    return out


@dataclass
class VortexSystem:
    """A set of vortex particles with tree-accelerated induction.

    ``alphas`` are the particle circulation vectors (vorticity times
    volume).  The tree is built with ``|alpha|`` as the MAC weight, and
    per-cell circulation vectors come from prefix sums over the
    Morton-sorted particles, exactly like the gravity multipoles.
    """

    positions: np.ndarray
    alphas: np.ndarray
    sigma: float = 0.05

    def __post_init__(self) -> None:
        self.positions = np.ascontiguousarray(self.positions, dtype=np.float64)
        self.alphas = np.ascontiguousarray(self.alphas, dtype=np.float64)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValueError("positions must be (N, 3)")
        if self.alphas.shape != self.positions.shape:
            raise ValueError("alphas must match positions")
        if self.sigma <= 0:
            raise ValueError("core radius must be positive")

    @property
    def n_particles(self) -> int:
        return self.positions.shape[0]

    @property
    def total_circulation(self) -> np.ndarray:
        """Sum of alpha — invariant under induced motion (Kelvin)."""
        return self.alphas.sum(axis=0)

    @property
    def linear_impulse(self) -> np.ndarray:
        """(1/2) sum x cross alpha — the fluid impulse invariant."""
        return 0.5 * _cross(self.positions, self.alphas).sum(axis=0)

    def velocities(self, *, theta: float = 0.45, bucket_size: int = 32) -> np.ndarray:
        """Induced velocity at every particle, tree-accelerated."""
        return tree_velocities(
            self.positions, self.alphas, sigma=self.sigma, theta=theta, bucket_size=bucket_size
        )

    def step(self, dt: float, *, theta: float = 0.45) -> None:
        """Advance particles with midpoint (RK2) convection.

        Vortex stretching is omitted (transport-only dynamics); total
        circulation is therefore exactly conserved, and rings translate
        self-similarly — the regime the tests validate.
        """
        if dt <= 0:
            raise ValueError("dt must be positive")
        u1 = self.velocities(theta=theta)
        mid = VortexSystem(self.positions + 0.5 * dt * u1, self.alphas, self.sigma)
        u2 = mid.velocities(theta=theta)
        self.positions = self.positions + dt * u2


def _cell_circulations(tree: Tree, alphas_sorted: np.ndarray) -> np.ndarray:
    """Per-cell circulation vectors via prefix sums (contiguous runs)."""
    n = tree.n_particles
    cum = np.zeros((n + 1, 3))
    np.cumsum(alphas_sorted, axis=0, out=cum[1:])
    return cum[tree.start + tree.count] - cum[tree.start]


def tree_velocities(
    positions: np.ndarray,
    alphas: np.ndarray,
    *,
    sigma: float = 0.05,
    theta: float = 0.45,
    bucket_size: int = 32,
) -> np.ndarray:
    """Tree-accelerated induced velocities at the particles.

    Near field (opened leaves plus the group itself) uses the exact
    regularized kernel; accepted cells contribute their circulation
    monopole via the far-field (unsmoothed) kernel.
    """
    positions = np.ascontiguousarray(positions, dtype=np.float64)
    alphas = np.ascontiguousarray(alphas, dtype=np.float64)
    if alphas.shape != positions.shape:
        raise ValueError("alphas must match positions")
    weights = np.linalg.norm(alphas, axis=1)
    # Massless particles still occupy tree slots; tiny floor keeps the
    # |alpha|-weighted centroids defined.
    weights = np.maximum(weights, 1e-300)
    tree = build_tree(positions, weights, bucket_size=bucket_size)
    alphas_sorted = alphas[tree.order]
    cell_alpha = _cell_circulations(tree, alphas_sorted)
    lists = build_interaction_lists(tree, OpeningAngleMAC(theta))
    # Near field: the particles of the opened leaves, then the group's own.
    near_offsets, near = lists.direct_sources(tree.table)

    out = np.zeros((tree.n_particles, 3))
    for g, group in enumerate(lists.groups):
        sl = tree.particles_of(group)
        sinks = tree.positions[sl]
        cells = lists.cells_of(g)
        if cells.size:
            dr = sinks[:, None, :] - tree.com[cells][None, :, :]
            r2 = np.einsum("ijk,ijk->ij", dr, dr)
            k = 1.0 / np.power(r2, 1.5)  # far field: unsmoothed
            out[sl] += -_INV_4PI * np.einsum(
                "ij,ijk->ik", k, _cross(dr, cell_alpha[cells][None, :, :])
            )
        all_parts = near[near_offsets[g]:near_offsets[g + 1]]
        dr = sinks[:, None, :] - tree.positions[all_parts][None, :, :]
        r2 = np.einsum("ijk,ijk->ij", dr, dr)
        k = wl_kernel(r2, sigma)
        out[sl] += -_INV_4PI * np.einsum(
            "ij,ijk->ik", k, _cross(dr, alphas_sorted[all_parts][None, :, :])
        )
    result = np.empty_like(out)
    result[tree.order] = out
    return result
