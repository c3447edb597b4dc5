"""Rotating core-collapse setup and driver (Section 4.4, Figure 8).

Builds a rotating polytropic stellar core (Lane-Emden structure,
differential rotation) and collapses it under self-gravity (the
treecode), SPH hydrodynamics, the stiffening nuclear EOS (bounce), and
gray FLD neutrino transport.  The Figure 8 diagnostic — the specific
angular momentum distribution versus polar angle, with the equator
carrying ~2 orders of magnitude more than the polar cones — is
computed by :func:`angular_momentum_by_angle`.

Units: G = M_core = R_core = 1 ("code units"); the dynamical time is
then order unity and the bounce occurs within a few dynamical times
once pressure support is reduced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..core.gravity import tree_accelerations
from .density import adapt_smoothing
from .eos import HybridCollapseEOS
from .forces import ViscosityParams, compute_sph_forces
from .neutrino import FldParams, neutrino_step

__all__ = [
    "lane_emden",
    "polytrope_particles",
    "add_rotation",
    "angular_momentum_by_angle",
    "CollapseConfig",
    "CollapseHistory",
    "CollapseSimulation",
    "run_campaign_scenario",
]

#: Lane-Emden solutions kept per process: every progenitor of one
#: polytropic index shares one profile (~14 000 Python ``rhs`` calls).
LANE_EMDEN_MEMO_SIZE = 16


def run_campaign_scenario(params) -> dict:
    """Campaign entry point: one supernova-progenitor scenario.

    ``params`` are the fields of
    :class:`repro.campaign.spec.SupernovaSpec`: progenitor resolution
    and structure (``n_particles``, ``n_poly``, ``seed``), rotation law
    (``omega0``, ``r0``), the pressure deficit that triggers collapse,
    and the step budget.  Builds the rotating polytrope, runs the
    coupled gravity + SPH + EOS driver, and returns JSON scalars only —
    the campaign scenario contract.  Neutrino transport defaults off so
    a campaign-sized progenitor (tens of particles) runs in tens of
    milliseconds; production sweeps turn it back on.
    """
    n_particles = int(params.get("n_particles", 48))
    n_steps = int(params.get("n_steps", 3))
    pos, masses, u = polytrope_particles(
        n_particles,
        n_poly=float(params.get("n_poly", 3.0)),
        seed=int(params.get("seed", 20031115)),
    )
    vel = add_rotation(pos, omega0=float(params.get("omega0", 0.3)),
                       r0=float(params.get("r0", 0.3)))
    cfg = CollapseConfig(
        n_target_neighbors=int(params.get("n_target_neighbors", 12)),
        pressure_deficit=float(params.get("pressure_deficit", 0.55)),
        with_neutrinos=bool(params.get("with_neutrinos", False)),
    )
    sim = CollapseSimulation(pos, vel, masses, u, cfg)
    hist = sim.run(n_steps)
    return {
        "n_particles": n_particles,
        "steps": len(hist.times),
        "time_final": float(sim.time),
        "max_density": float(hist.max_density),
        "bounced": bool(hist.bounced(cfg.eos.rho_nuc)),
        "central_density_final": float(hist.central_density[-1]) if hist.central_density else 0.0,
        "total_energy_final": float(hist.total_energy[-1]) if hist.total_energy else 0.0,
    }


def lane_emden(n_poly: float = 3.0, dxi: float = 1e-3, xi_max: float = 20.0):
    """Integrate the Lane-Emden equation to the first zero of theta.

    Returns ``(xi, theta, xi1, dtheta_dxi_at_xi1)`` — everything needed
    to build a polytropic density profile ``rho ~ theta^n``.  The arrays
    are read-only: one solution is shared by every caller that asks for
    the same parameters.
    """
    if not 0 <= n_poly < math.inf:  # each test is false for nan too
        raise ValueError(f"n_poly must be finite and non-negative, got {n_poly!r}")
    if not 0 < dxi < math.inf:
        raise ValueError(f"dxi must be finite and positive, got {dxi!r}")
    if not math.isfinite(xi_max):
        raise ValueError(f"xi_max must be finite, got {xi_max!r}")
    return _lane_emden(n_poly, dxi, xi_max)


@lru_cache(maxsize=LANE_EMDEN_MEMO_SIZE)
def _lane_emden(n_poly: float, dxi: float, xi_max: float):
    xis = [dxi]
    thetas = [1.0 - dxi * dxi / 6.0]
    phi = -dxi / 3.0  # dtheta/dxi
    xi, theta = xis[0], thetas[0]
    while theta > 0 and xi < xi_max:
        # RK2 (midpoint) on theta'' = -theta^n - 2 theta'/xi.
        def rhs(x, t, p):
            return p, -(max(t, 0.0) ** n_poly) - 2.0 * p / x

        k1t, k1p = rhs(xi, theta, phi)
        k2t, k2p = rhs(xi + dxi / 2, theta + k1t * dxi / 2, phi + k1p * dxi / 2)
        theta += k2t * dxi
        phi += k2p * dxi
        xi += dxi
        xis.append(xi)
        thetas.append(theta)
    if theta > 0:
        raise RuntimeError(f"no Lane-Emden zero before xi = {xi_max}")
    # Linear interpolation for the zero crossing.
    x0, x1 = xis[-2], xis[-1]
    t0, t1 = thetas[-2], thetas[-1]
    xi1 = x0 + (x1 - x0) * t0 / (t0 - t1)
    xis, thetas = np.array(xis), np.array(thetas)
    xis.flags.writeable = thetas.flags.writeable = False
    return xis, thetas, float(xi1), float(phi)


def polytrope_particles(
    n_particles: int, n_poly: float = 3.0, seed: int = 20031115
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample a unit-mass, unit-radius polytrope: (positions, masses, u).

    Radii are drawn from the enclosed-mass profile
    ``m(xi) ~ -xi^2 theta'`` by inverse-transform sampling; specific
    internal energies follow the polytropic temperature profile
    ``u ~ theta``.
    """
    if n_particles < 1:
        raise ValueError("need at least one particle")
    xis, thetas, xi1, _ = lane_emden(n_poly)
    inside = xis <= xi1
    xis, thetas = xis[inside], np.maximum(thetas[inside], 0.0)
    dens = thetas**n_poly
    # Enclosed mass by trapezoid of 4 pi xi^2 rho.
    integrand = xis**2 * dens
    m_enc = np.concatenate([[0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(xis))])
    m_enc /= m_enc[-1]
    rng = np.random.default_rng(seed)
    u_draw = rng.random(n_particles)
    radii = np.interp(u_draw, m_enc, xis) / xi1  # scaled to unit radius
    direction = rng.standard_normal((n_particles, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    positions = radii[:, None] * direction
    masses = np.full(n_particles, 1.0 / n_particles)
    u_internal = 0.05 + 0.5 * np.interp(radii * xi1, xis, thetas)
    return positions, masses, u_internal


def add_rotation(
    positions: np.ndarray, omega0: float = 0.3, r0: float = 0.3
) -> np.ndarray:
    """Velocities for differential rotation about z: Omega = Omega0 / (1 + (R/r0)^2).

    The standard pre-collapse rotation law (constant specific angular
    momentum at large cylindrical radius R).
    """
    if omega0 < 0 or r0 <= 0:
        raise ValueError("invalid rotation parameters")
    positions = np.asarray(positions, dtype=np.float64)
    big_r2 = positions[:, 0] ** 2 + positions[:, 1] ** 2
    omega = omega0 / (1.0 + big_r2 / r0**2)
    vel = np.zeros_like(positions)
    vel[:, 0] = -omega * positions[:, 1]
    vel[:, 1] = omega * positions[:, 0]
    return vel


def angular_momentum_by_angle(
    positions: np.ndarray, velocities: np.ndarray, masses: np.ndarray, n_bins: int = 9
) -> tuple[np.ndarray, np.ndarray]:
    """Mean specific angular momentum |j_z| binned by polar angle.

    Returns ``(bin_centers_deg, j_mean)`` where 0 deg is the pole and
    90 deg the equator — the Figure 8 axes.  Bins are in ``|cos|`` so
    each subtends equal solid angle per hemisphere pair.
    """
    positions = np.asarray(positions, dtype=np.float64)
    velocities = np.asarray(velocities, dtype=np.float64)
    r = np.linalg.norm(positions, axis=1)
    r = np.maximum(r, 1e-300)
    cos_theta = np.abs(positions[:, 2]) / r
    jz = np.abs(positions[:, 0] * velocities[:, 1] - positions[:, 1] * velocities[:, 0])
    theta_deg = np.degrees(np.arccos(np.clip(cos_theta, 0.0, 1.0)))
    edges = np.linspace(0.0, 90.0, n_bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    j_mean = np.zeros(n_bins)
    for b in range(n_bins):
        mask = (theta_deg >= edges[b]) & (theta_deg < edges[b + 1])
        if np.any(mask):
            j_mean[b] = float(np.average(jz[mask], weights=masses[mask]))
    return centers, j_mean


def cone_vs_equator_angular_momentum(
    positions: np.ndarray,
    velocities: np.ndarray,
    masses: np.ndarray,
    cone_deg: float = 15.0,
) -> tuple[float, float]:
    """Total |L_z| in the polar cones versus the equatorial band.

    Figure 8's caption: "the angular momentum in the 15 degree cone
    along the poles is 2 orders of magnitude less than that in the
    equator."  Returns ``(L_cone, L_equator)`` where the equatorial
    band spans the same angular width about the equator.
    """
    if not 0 < cone_deg < 45:
        raise ValueError("cone_deg must be in (0, 45)")
    positions = np.asarray(positions, dtype=np.float64)
    velocities = np.asarray(velocities, dtype=np.float64)
    masses = np.asarray(masses, dtype=np.float64)
    r = np.maximum(np.linalg.norm(positions, axis=1), 1e-300)
    theta = np.degrees(np.arccos(np.clip(np.abs(positions[:, 2]) / r, 0.0, 1.0)))
    lz = masses * (positions[:, 0] * velocities[:, 1] - positions[:, 1] * velocities[:, 0])
    cone = theta < cone_deg
    equator = theta > 90.0 - cone_deg
    return float(np.abs(lz[cone]).sum()), float(np.abs(lz[equator]).sum())


@dataclass(frozen=True)
class CollapseConfig:
    """Knobs of the collapse driver."""

    n_target_neighbors: int = 32
    theta_mac: float = 0.7
    eps: float = 0.02
    cfl: float = 0.3
    pressure_deficit: float = 0.55  # initial cold-pressure reduction triggering collapse
    eos: HybridCollapseEOS = field(default_factory=lambda: HybridCollapseEOS(k1=0.12, rho_nuc=60.0))
    visc: ViscosityParams = field(default_factory=ViscosityParams)
    fld: FldParams = field(default_factory=FldParams)
    with_neutrinos: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.pressure_deficit <= 1:
            raise ValueError("pressure_deficit must be in (0, 1]")
        if self.cfl <= 0 or self.eps < 0:
            raise ValueError("invalid CFL or softening")


@dataclass
class CollapseHistory:
    """Per-step diagnostics of a collapse run."""

    times: list[float] = field(default_factory=list)
    central_density: list[float] = field(default_factory=list)
    neutrino_luminosity: list[float] = field(default_factory=list)
    total_energy: list[float] = field(default_factory=list)

    @property
    def max_density(self) -> float:
        return max(self.central_density) if self.central_density else 0.0

    def bounced(self, rho_nuc: float) -> bool:
        """True when the core reached nuclear density and rebounded."""
        if not self.central_density:
            return False
        dens = np.array(self.central_density)
        peak = int(np.argmax(dens))
        return bool(dens[peak] >= rho_nuc and peak < len(dens) - 1 and dens[-1] < dens[peak])


class CollapseSimulation:
    """The coupled gravity + SPH + EOS + FLD driver."""

    def __init__(
        self,
        positions: np.ndarray,
        velocities: np.ndarray,
        masses: np.ndarray,
        u_internal: np.ndarray,
        config: CollapseConfig | None = None,
    ):
        self.config = config or CollapseConfig()
        self.positions = np.ascontiguousarray(positions, dtype=np.float64)
        self.velocities = np.ascontiguousarray(velocities, dtype=np.float64)
        self.masses = np.ascontiguousarray(masses, dtype=np.float64)
        # Reduce effective pressure support to trigger collapse (stands
        # in for the iron-core instability: electron capture +
        # photodissociation robbing the core of pressure).
        self.u = np.ascontiguousarray(u_internal, dtype=np.float64) * (
            1.0 - self.config.pressure_deficit
        )
        self.e_nu = np.zeros_like(self.u)
        self.time = 0.0
        self.history = CollapseHistory()
        self._h = None

    def _rates(self):
        """One full right-hand-side evaluation at the current state."""
        cfg = self.config
        tree, dens = adapt_smoothing(
            self.positions, self.masses, self._h_caller(), n_target=cfg.n_target_neighbors
        )
        order = tree.order
        inv = np.empty_like(order)
        inv[order] = np.arange(order.size)
        rho_t = dens.rho
        u_t = self.u[order]
        vel_t = self.velocities[order]
        p = cfg.eos.pressure(rho_t, u_t)
        cs = cfg.eos.sound_speed(rho_t, u_t)
        hydro = compute_sph_forces(
            tree, dens.neighbors, rho=rho_t, pressure=p, sound_speed=cs,
            velocities=vel_t, h=dens.h, visc=cfg.visc,
        )
        grav = tree_accelerations(
            self.positions, self.masses, theta=cfg.theta_mac, eps=cfg.eps
        )
        self._h = dens.h[inv]
        return tree, dens, inv, rho_t, hydro, grav

    def _h_caller(self):
        return self._h

    def step(self, dt: float | None = None) -> float:
        """One KDK step; returns the dt actually used."""
        cfg = self.config
        tree, dens, inv, rho_t, hydro, grav = self._rates()
        acc = hydro.dv_dt[inv] + grav.accelerations
        du = hydro.du_dt[inv]
        if dt is None:
            dt = cfg.cfl * float(dens.h.min()) / max(hydro.max_signal_speed, 1e-12)
            a_max = float(np.linalg.norm(acc, axis=1).max())
            if a_max > 0:
                dt = min(dt, cfg.cfl * np.sqrt(float(dens.h.min()) / a_max))
        if dt <= 0:
            raise ValueError("dt must be positive")
        # Kick-drift (single-evaluation KDK variant: drift with the
        # half-kicked velocity, then finish the kick at the new state
        # next step — adequate for the shock-dominated collapse).
        self.velocities += acc * dt
        self.positions += self.velocities * dt
        self.u = np.maximum(self.u + du * dt, 0.0)
        if cfg.with_neutrinos:
            nu = neutrino_step(
                tree, dens.neighbors, rho=rho_t, u=self.u[tree.order],
                e_nu=self.e_nu[tree.order], h=dens.h, dt=dt, params=cfg.fld,
            )
            self.e_nu = nu.e_nu[inv]
            self.u = np.maximum(self.u + nu.du_dt_gas[inv] * dt, 0.0)
            lum = nu.luminosity
        else:
            lum = 0.0
        self.time += dt
        ke = 0.5 * float(np.sum(self.masses * np.einsum("ij,ij->i", self.velocities, self.velocities)))
        pe = grav.potential_energy(self.masses)
        te = ke + pe + float(np.sum(self.masses * self.u))
        self.history.times.append(self.time)
        self.history.central_density.append(float(rho_t.max()))
        self.history.neutrino_luminosity.append(lum)
        self.history.total_energy.append(te)
        return dt

    def run(self, n_steps: int) -> CollapseHistory:
        if n_steps < 0:
            raise ValueError("n_steps must be non-negative")
        for _ in range(n_steps):
            self.step()
        return self.history
