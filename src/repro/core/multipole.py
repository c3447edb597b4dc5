"""Multipole moments of tree cells: mass, center of mass, quadrupole.

Because Morton-sorted particles make every cell a contiguous run, all
cell moments are differences of prefix sums — an O(N + C) computation
with no per-cell Python loops.  The quadrupole is stored traceless in
packed symmetric order ``(xx, yy, zz, xy, xz, yz)``:

.. math::

    Q_{ij} = \\sum_k m_k \\left(3\\, r_{k,i} r_{k,j} - r_k^2\\,
    \\delta_{ij}\\right), \\qquad r_k = x_k - X_\\mathrm{com}

``bmax`` is a conservative bound on the distance from the center of
mass to any particle in the cell (cell half-diagonal plus the COM's
offset from the geometric center), used by the multipole acceptance
criterion.
"""

from __future__ import annotations

import numpy as np

from .tree import Tree

__all__ = ["compute_multipoles", "cell_geometric_centers"]


def cell_geometric_centers(tree: Tree) -> np.ndarray:
    """Geometric centers of every cell, derived from particle runs.

    Uses each cell's key-defined level and the position of its first
    particle (any member identifies the cell cube).
    """
    sizes = tree.box.size / np.power(2.0, tree.level.astype(np.float64))
    first_pos = tree.positions[tree.start]
    rel = (first_pos - tree.box.corner) / sizes[:, None]
    return tree.box.corner + (np.floor(rel) + 0.5) * sizes[:, None]


def compute_multipoles(tree: Tree) -> None:
    """Fill ``tree.mass``, ``tree.com``, ``tree.quad``, ``tree.bmax``."""
    pos = tree.positions
    m = tree.masses
    n = tree.n_particles

    # Prefix sums with a leading zero so cell sums are cum[e] - cum[s].
    cm = np.zeros(n + 1)
    np.cumsum(m, out=cm[1:])
    cmx = np.zeros((n + 1, 3))
    np.cumsum(m[:, None] * pos, axis=0, out=cmx[1:])
    # Raw second moments, packed (xx, yy, zz, xy, xz, yz).
    second = np.empty((n, 6))
    second[:, 0] = m * pos[:, 0] * pos[:, 0]
    second[:, 1] = m * pos[:, 1] * pos[:, 1]
    second[:, 2] = m * pos[:, 2] * pos[:, 2]
    second[:, 3] = m * pos[:, 0] * pos[:, 1]
    second[:, 4] = m * pos[:, 0] * pos[:, 2]
    second[:, 5] = m * pos[:, 1] * pos[:, 2]
    cs = np.zeros((n + 1, 6))
    np.cumsum(second, axis=0, out=cs[1:])

    s = tree.start
    e = tree.start + tree.count
    mass = cm[e] - cm[s]
    if np.any(mass < 0):
        raise ValueError("negative cell mass; check particle masses")
    mx = cmx[e] - cmx[s]
    raw2 = cs[e] - cs[s]

    # Massless cells (all member particles massless) get their first
    # particle's position as a degenerate COM.
    safe = np.where(mass > 0, mass, 1.0)
    com = mx / safe[:, None]
    zero = mass == 0
    if np.any(zero):
        com[zero] = pos[s[zero]]

    # Central second moments P_ij = raw_ij - M X_i X_j.
    P = np.empty_like(raw2)
    P[:, 0] = raw2[:, 0] - mass * com[:, 0] * com[:, 0]
    P[:, 1] = raw2[:, 1] - mass * com[:, 1] * com[:, 1]
    P[:, 2] = raw2[:, 2] - mass * com[:, 2] * com[:, 2]
    P[:, 3] = raw2[:, 3] - mass * com[:, 0] * com[:, 1]
    P[:, 4] = raw2[:, 4] - mass * com[:, 0] * com[:, 2]
    P[:, 5] = raw2[:, 5] - mass * com[:, 1] * com[:, 2]
    trace = P[:, 0] + P[:, 1] + P[:, 2]
    quad = np.empty_like(P)
    quad[:, :3] = 3.0 * P[:, :3] - trace[:, None]
    quad[:, 3:] = 3.0 * P[:, 3:]

    centers = cell_geometric_centers(tree)
    sizes = tree.box.size / np.power(2.0, tree.level.astype(np.float64))
    half_diag = (np.sqrt(3.0) / 2.0) * sizes
    off = np.linalg.norm(com - centers, axis=1)
    bmax = half_diag + off

    tree.mass = mass
    tree.com = com
    tree.quad = quad
    tree.bmax = bmax
    tree.__dict__.pop("table", None)  # a table seeded over earlier moments is stale
