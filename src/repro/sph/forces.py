"""SPH momentum and energy equations with artificial viscosity.

The symmetrized pressure-gradient form,

.. math::

    \\frac{dv_i}{dt} = -\\sum_j m_j \\left( \\frac{P_i}{\\rho_i^2} +
        \\frac{P_j}{\\rho_j^2} + \\Pi_{ij} \\right)
        \\bar{\\nabla W}_{ij},

with Monaghan's standard artificial viscosity (the alpha/beta form
with the usual epsilon h^2 regularization) and the compatible thermal
energy equation.  The kernel gradient is symmetrized between h_i and
h_j, so momentum and energy are conserved to machine precision —
asserted by the test suite, since that conservation is what makes long
supernova runs (0.1-0.2 million timesteps, Section 4.4) possible at
all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.backend import get_backend
from ..core.tree import Tree
from ..obs import wallclock
from .kernel import dw_dr_cubic
from .neighbors import NeighborLists, symmetric_pairs

__all__ = ["ViscosityParams", "SphForces", "compute_sph_forces"]


@dataclass(frozen=True)
class ViscosityParams:
    """Monaghan alpha/beta artificial viscosity."""

    alpha: float = 1.0
    beta: float = 2.0
    eta2: float = 0.01  # softens r -> 0 in mu_ij, units of h^2

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0 or self.eta2 <= 0:
            raise ValueError("invalid viscosity parameters")


@dataclass
class SphForces:
    """Accelerations and heating rates, in tree order."""

    dv_dt: np.ndarray  # (N, 3)
    du_dt: np.ndarray  # (N,)
    max_signal_speed: float  # for CFL timestep control


def compute_sph_forces(
    tree: Tree,
    neighbors: NeighborLists,
    *,
    rho: np.ndarray,
    pressure: np.ndarray,
    sound_speed: np.ndarray,
    velocities: np.ndarray,
    h: np.ndarray,
    visc: ViscosityParams | None = None,
    backend=None,
) -> SphForces:
    """Evaluate the SPH equations of motion (all arrays tree-order).

    Pairwise contributions are accumulated through the selected kernel
    backend's scatter-add.
    """
    visc = visc or ViscosityParams()
    kb = get_backend(backend)
    n = tree.n_particles
    for name, arr, shape in (
        ("rho", rho, (n,)),
        ("pressure", pressure, (n,)),
        ("sound_speed", sound_speed, (n,)),
        ("velocities", velocities, (n, 3)),
        ("h", h, (n,)),
    ):
        if np.asarray(arr).shape != shape:
            raise ValueError(f"{name} must have shape {shape}")
    if np.any(rho <= 0):
        raise ValueError("densities must be positive")

    # Unique unordered pairs: conservation requires each interaction to
    # act on both members exactly once (gather lists are asymmetric
    # with adaptive h — see neighbors.symmetric_pairs).
    i_idx, j_idx = symmetric_pairs(neighbors)

    dr = tree.positions[i_idx] - tree.positions[j_idx]
    r = np.sqrt(np.einsum("ij,ij->i", dr, dr))
    r_safe = np.maximum(r, 1e-300)
    unit = dr / r_safe[:, None]

    # Symmetrized kernel gradient magnitude.
    dw = 0.5 * (dw_dr_cubic(r, h[i_idx]) + dw_dr_cubic(r, h[j_idx]))

    dv = velocities[i_idx] - velocities[j_idx]
    vdotr = np.einsum("ij,ij->i", dv, dr)

    # Monaghan viscosity.
    h_bar = 0.5 * (h[i_idx] + h[j_idx])
    rho_bar = 0.5 * (rho[i_idx] + rho[j_idx])
    c_bar = 0.5 * (sound_speed[i_idx] + sound_speed[j_idx])
    mu = np.where(
        vdotr < 0.0,
        h_bar * vdotr / (r_safe**2 + visc.eta2 * h_bar**2),
        0.0,
    )
    pi_ij = (-visc.alpha * c_bar * mu + visc.beta * mu**2) / rho_bar

    term = (
        pressure[i_idx] / rho[i_idx] ** 2
        + pressure[j_idx] / rho[j_idx] ** 2
        + pi_ij
    )
    # Action on i, reaction on j (momentum conservation by construction).
    with wallclock.span("sph.forces", cat="sph", backend=kb.name):
        kernel_force = (term * dw)[:, None] * unit
        dv_dt = np.zeros((n, 3))
        kb.scatter_add(dv_dt, i_idx, -tree.masses[j_idx][:, None] * kernel_force)
        kb.scatter_add(dv_dt, j_idx, tree.masses[i_idx][:, None] * kernel_force)

        # Compatible thermal energy: du_i/dt gets (m_j/2) X, du_j
        # (m_i/2) X with X = term * (v_ij . grad W) — total energy then
        # conserves exactly against the momentum equation.
        x_pair = term * dw * np.einsum("ij,ij->i", dv, unit)
        du_dt = np.zeros(n)
        kb.scatter_add(du_dt, i_idx, 0.5 * tree.masses[j_idx] * x_pair)
        kb.scatter_add(du_dt, j_idx, 0.5 * tree.masses[i_idx] * x_pair)
        wallclock.count("sph.force_pairs", int(i_idx.shape[0]))

    signal = sound_speed[i_idx] + sound_speed[j_idx] - np.minimum(mu, 0.0)
    max_signal = float(signal.max()) if signal.size else float(sound_speed.max())
    return SphForces(dv_dt, du_dt, max_signal)
