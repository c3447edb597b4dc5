"""SPH density summation with adaptive smoothing lengths.

Density is the gather sum ``rho_i = sum_j m_j W(r_ij, h_i)`` over the
tree-found neighbor lists; smoothing lengths adapt so every particle
sees approximately ``n_target`` neighbors (the Lagrangian resolution
the paper's code relies on: "Taking advantage of the Lagrangian nature
of smooth particle hydrodynamics …").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.backend import get_backend
from ..core.tree import Tree, build_tree
from ..obs import wallclock
from .kernel import SUPPORT_RADIUS, w_cubic
from .neighbors import NeighborLists, find_neighbors

__all__ = ["DensityResult", "density_sum", "adapt_smoothing", "initial_smoothing"]


@dataclass
class DensityResult:
    rho: np.ndarray
    h: np.ndarray
    neighbors: NeighborLists
    n_iterations: int


#: The most one iteration multiplies ``h`` by, so a search at ``GROW``
#: times the radii answers the next iteration too.
GROW = 1.5


def _checked_positions(positions) -> np.ndarray:
    positions = np.ascontiguousarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 3 or positions.shape[0] == 0:
        raise ValueError(f"positions must be a non-empty (N, 3) array, not shape {positions.shape}")
    if not np.all(np.isfinite(positions)):
        raise ValueError("positions must be finite")
    return positions


def initial_smoothing(positions: np.ndarray, n_target: int = 40) -> np.ndarray:
    """First-guess h from the mean interparticle spacing."""
    positions = _checked_positions(positions)
    n = positions.shape[0]
    span = positions.max(axis=0) - positions.min(axis=0)
    volume = float(np.prod(np.maximum(span, 1e-12)))
    spacing = (volume / n) ** (1.0 / 3.0)
    h0 = spacing * (n_target / (4.0 / 3.0 * np.pi * SUPPORT_RADIUS**3)) ** (1.0 / 3.0)
    return np.full(n, max(h0, 1e-12))


def density_sum(
    tree: Tree,
    h: np.ndarray,
    neighbors: NeighborLists | None = None,
    *,
    backend=None,
) -> tuple[np.ndarray, NeighborLists]:
    """Gather-form density over tree-order particles.

    The neighbor lists are CSR by sink particle, so the gather sum is a
    segment reduction through the selected kernel backend.
    """
    kb = get_backend(backend)
    if neighbors is None:
        neighbors = find_neighbors(tree, SUPPORT_RADIUS * h, backend=kb)
    with wallclock.span("sph.density", cat="sph", backend=kb.name):
        i_idx = np.repeat(np.arange(tree.n_particles), neighbors.counts())
        j_idx = neighbors.neighbors
        w = w_cubic(np.sqrt(neighbors.d2), h[i_idx])
        rho = kb.segment_sum(tree.masses[j_idx] * w, neighbors.offsets)
        wallclock.count("sph.density_pairs", int(j_idx.shape[0]))
    return rho, neighbors


def adapt_smoothing(
    positions: np.ndarray,
    masses: np.ndarray,
    h: np.ndarray | None = None,
    *,
    n_target: int = 40,
    max_iters: int = 4,
    bucket_size: int = 16,
    backend=None,
) -> tuple[Tree, DensityResult]:
    """Iterate h toward the target neighbor count; returns (tree, result).

    Inputs are in caller order; the returned tree (and all arrays in the
    result) are in tree (Morton) order — use ``tree.order`` to map back.

    One neighbour search, at a skin of ``GROW`` times the radii (exact
    radii if the first iteration is the last), answers every iteration
    that stays inside it: the iteration's lists are the skin's, filtered
    (:meth:`NeighborLists.within`), bit for bit ``find_neighbors`` at its
    radii.  A radius beyond its skin searches again (one
    ``sph.neighbors`` span a search).  The skin lists hold up to
    ``GROW**3`` (about 3.4) times a solve's pairs, one int64 index and one
    float64 ``d2`` each.  The density is summed once, for the final
    ``h`` (one ``sph.density`` span and one ``sph.density_pairs`` count
    a solve).
    """
    positions = _checked_positions(positions)
    masses = np.ascontiguousarray(masses, dtype=np.float64)
    n = positions.shape[0]
    if masses.shape != (n,):
        raise ValueError(f"masses must have shape ({n},), not {masses.shape}")
    if n_target < 1 or max_iters < 1:
        raise ValueError("n_target and max_iters must be positive")
    if h is None:
        h = initial_smoothing(positions, n_target)
    else:
        h = np.asarray(h, dtype=np.float64)
        if h.shape != (n,) or np.any(h <= 0):
            raise ValueError("h must be positive with one entry per particle")
    tree = build_tree(positions, masses, bucket_size=bucket_size)
    h = h[tree.order]
    skin = None
    for iterations in range(1, max_iters + 1):
        radii = SUPPORT_RADIUS * h
        last = iterations == max_iters
        if skin is None or np.any(radii > skin.search_radii):
            skin = find_neighbors(tree, radii if last else radii * GROW, backend=backend)
        neigh = skin.within(radii)
        counts = neigh.counts()
        if last or np.all(np.abs(counts - n_target) <= max(2, n_target // 5)):
            break
        # Move h toward the count target (cube-root rule), damped.
        factor = (n_target / np.maximum(counts, 1)) ** (1.0 / 3.0)
        h = h * np.clip(factor, 0.7, GROW)
    rho, _ = density_sum(tree, h, neigh, backend=backend)
    return tree, DensityResult(rho, h, neigh, iterations)
