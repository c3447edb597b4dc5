"""High-level gravity API: direct summation and the treecode front door.

``direct_accelerations`` is the O(N^2) reference every approximation is
pinned against in the test suite; ``tree_accelerations`` is the public
one-call treecode (build + multipoles + traversal).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .keys import BoundingBox
from .mac import OpeningAngleMAC
from .traversal import DEFAULT_PAIR_CHUNK, InteractionCounts, compute_forces
from .tree import Tree, build_tree

__all__ = ["GravityResult", "direct_accelerations", "tree_accelerations", "total_energy"]


@dataclass
class GravityResult:
    """Accelerations (N, 3) and potentials (N,) in input order."""

    accelerations: np.ndarray
    potentials: np.ndarray
    counts: InteractionCounts
    tree: Tree | None = None

    def potential_energy(self, masses: np.ndarray) -> float:
        """Total gravitational potential energy, (1/2) sum m_i phi_i."""
        return 0.5 * float(np.dot(masses, self.potentials))


def direct_accelerations(
    positions: np.ndarray,
    masses: np.ndarray,
    *,
    eps: float = 0.0,
    G: float = 1.0,
    block: int = 1024,
) -> GravityResult:
    """Plummer-softened direct N-body sum, evaluated in memory blocks.

    Self-interactions are excluded exactly (zero force contribution and
    no self-energy in the potential).  Handles every degenerate input
    the treecode accepts: N in {0, 1}, N not divisible by ``block``,
    zero-mass particles, and unsoftened coincident pairs.
    """
    if block < 1:
        raise ValueError("block must be positive")
    positions = np.ascontiguousarray(positions, dtype=np.float64)
    masses = np.ascontiguousarray(masses, dtype=np.float64)
    n = positions.shape[0]
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise ValueError("positions must have shape (N, 3)")
    if masses.shape != (n,):
        raise ValueError("masses must have shape (N,)")
    if eps < 0:
        raise ValueError("softening must be non-negative")
    eps2 = eps * eps
    acc = np.zeros_like(positions)
    pot = np.zeros(n)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        dr = positions[lo:hi, None, :] - positions[None, :, :]
        r2 = np.einsum("ijk,ijk->ij", dr, dr)
        rs2 = r2 + eps2
        own = np.arange(lo, hi)
        rs2[np.arange(hi - lo), own] = 1.0  # placeholder; masked below
        if eps2 == 0.0:
            rs2 = np.where(r2 == 0.0, 1.0, rs2)  # coincident pairs masked below
        inv_r = 1.0 / np.sqrt(rs2)
        inv_r3 = inv_r / rs2
        inv_r[np.arange(hi - lo), own] = 0.0
        inv_r3[np.arange(hi - lo), own] = 0.0
        if eps2 == 0.0:
            zero = r2 == 0.0
            inv_r = np.where(zero, 0.0, inv_r)
            inv_r3 = np.where(zero, 0.0, inv_r3)
        acc[lo:hi] = -(np.einsum("j,ijk,ij->ik", G * masses, dr, inv_r3))
        pot[lo:hi] = -(inv_r @ (G * masses))
    counts = InteractionCounts(p2p=n * (n - 1), p2c=0, groups=0)
    return GravityResult(acc, pot, counts)


def tree_accelerations(
    positions: np.ndarray,
    masses: np.ndarray | None = None,
    *,
    theta: float = 0.6,
    eps: float = 0.0,
    G: float = 1.0,
    bucket_size: int = 32,
    box: BoundingBox | None = None,
    mac=None,
    backend=None,
    pair_chunk: int = DEFAULT_PAIR_CHUNK,
) -> GravityResult:
    """One-call hashed oct-tree gravity.

    Parameters mirror the serial HOT code: ``theta`` is the Barnes–Hut
    opening angle (accuracy knob), ``eps`` the Plummer softening,
    ``bucket_size`` the leaf capacity.  Pass a custom ``mac`` to use a
    different acceptance criterion, and ``backend`` (a
    :class:`~repro.core.backend.KernelBackend`, or ``None`` for the
    shared numpy one) to pick the kernel backend.
    """
    tree = build_tree(positions, masses, bucket_size=bucket_size, box=box)
    mac = mac if mac is not None else OpeningAngleMAC(theta)
    res = compute_forces(tree, mac=mac, eps=eps, G=G, backend=backend, pair_chunk=pair_chunk)
    return GravityResult(res.accelerations, res.potentials, res.counts, tree)


def total_energy(
    positions: np.ndarray,
    velocities: np.ndarray,
    masses: np.ndarray,
    *,
    eps: float = 0.0,
    G: float = 1.0,
) -> tuple[float, float, float]:
    """(kinetic, potential, total) energy via direct summation.

    The diagnostic used by integrator tests; O(N^2), so keep N modest.
    """
    ke = 0.5 * float(np.sum(masses * np.einsum("ij,ij->i", velocities, velocities)))
    pe = direct_accelerations(positions, masses, eps=eps, G=G).potential_energy(masses)
    return ke, pe, ke + pe
