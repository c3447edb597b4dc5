"""Comoving-coordinate N-body evolution and the Section 4.3 run model.

:class:`ComovingSimulation` integrates collisionless particles in a
periodic unit box using ln(a) as the time variable.  With
``u = dx/dln a`` the equation of motion is

.. math::

    u' = -\\left(2 - \\tfrac{3}{2}\\Omega_m(a)\\right) u
         + \\tfrac{3}{2}\\Omega_m(a)\\, \\tilde g(x),
    \\qquad \\nabla^2 \\tilde\\phi = \\delta,\\ \\tilde g = -\\nabla\\tilde\\phi

whose linear solutions are exactly the growth factors D(a) — which is
also the validation: a Zel'dovich realization must amplify like
D(a) until shell crossing (asserted by the test suite).  The kick is
semi-implicit in the Hubble-friction term for unconditional stability.

:class:`CosmologyRunModel` is the performance model of the paper's
flagship run: 134 million particles, ~700 timesteps, 24 hours on 250
processors, 10^16 flops (112 Gflop/s), 1.5 TB written at an average
417 Mbyte/s with peak parallel-local-disk I/O near 7 Gbyte/s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..machine.node import DiskSpec, NodeSpec, SPACE_SIMULATOR_NODE
from ..machine.specs import FLOPS_PER_INTERACTION
from .background import Cosmology, LCDM
from .ics import InitialConditions, zeldovich_ics
from .pm import PMSolver, wrap_unit

__all__ = ["ComovingSimulation", "CosmologyRunModel", "PAPER_RUN", "run_campaign_scenario"]


class ComovingSimulation:
    """KDK leapfrog in ln(a) over PM gravity (periodic unit box).

    ``pm_grid`` defaults to the particle lattice dimension: a grid
    commensurate with the initial lattice is *blind* to the lattice
    pattern (each particle CIC-splits evenly), so the measured density
    contrast is pure perturbation.  Incommensurate grids alias the
    lattice into O(1) spurious power — avoid them.
    """

    def __init__(self, ics: InitialConditions, pm_grid: int | None = None):
        self.cosmology: Cosmology = ics.cosmology
        self.positions = wrap_unit(ics.positions)
        self.velocities = ics.velocities.copy()  # dx/dlna
        self.a = ics.a_start
        if pm_grid is None:
            pm_grid = max(round(ics.n_particles ** (1.0 / 3.0)), 4)
        self.solver = PMSolver(pm_grid)
        self.steps_taken = 0
        self._g = None

    def _coefficients(self) -> tuple[float, float]:
        om = self.cosmology.omega_m_of_a(self.a)
        return 2.0 - 1.5 * om, 1.5 * om  # friction alpha, source beta

    def _kick(self, dlna: float) -> None:
        alpha, beta = self._coefficients()
        if self._g is None:
            self._g = self.solver.accelerations(self.positions)
        # Semi-implicit in the friction term.
        self.velocities = (self.velocities + dlna * beta * self._g) / (1.0 + dlna * alpha)

    def step(self, dlna: float = 0.05) -> None:
        """One KDK step of size ``dlna`` in ln(a)."""
        if dlna <= 0:
            raise ValueError("dlna must be positive")
        self._kick(dlna / 2.0)
        self.positions = wrap_unit(self.positions + dlna * self.velocities)
        self.a *= np.exp(dlna)
        self._g = self.solver.accelerations(self.positions)
        self._kick(dlna / 2.0)
        self.steps_taken += 1

    def run_to(self, a_final: float, dlna: float = 0.05) -> None:
        """Advance to scale factor ``a_final``."""
        if a_final <= self.a:
            raise ValueError("a_final must exceed the current scale factor")
        n = int(np.ceil(np.log(a_final / self.a) / dlna))
        actual = np.log(a_final / self.a) / n
        for _ in range(n):
            self.step(actual)

    def density_rms(self, grid: int | None = None) -> float:
        """RMS density contrast on the PM grid (growth diagnostic)."""
        solver = self.solver if grid is None else PMSolver(grid)
        delta = solver.density_contrast(self.positions)
        return float(np.sqrt((delta**2).mean()))

    # -- checkpoint / restart --------------------------------------------
    def checkpoint(self, directory: str) -> str:
        """Write a restartable snapshot (see repro.core.snapshot)."""
        from ..core.snapshot import write_snapshot

        c = self.cosmology
        return write_snapshot(
            directory,
            {"positions": self.positions, "velocities": self.velocities},
            meta={
                "kind": "comoving",
                "a": self.a,
                "steps_taken": self.steps_taken,
                "pm_grid": self.solver.grid,
                "h": c.h, "omega_m": c.omega_m, "omega_l": c.omega_l,
                "omega_b": c.omega_b, "n_s": c.n_s, "sigma8": c.sigma8,
            },
        )

    @classmethod
    def restore(cls, directory: str) -> "ComovingSimulation":
        """Resume exactly from a checkpoint (bit-deterministic)."""
        from ..core.snapshot import SnapshotError, read_snapshot

        snap = read_snapshot(directory)
        if snap.meta.get("kind") != "comoving":
            raise SnapshotError("snapshot is not a comoving simulation checkpoint")
        obj = cls.__new__(cls)
        obj.cosmology = Cosmology(
            h=snap.meta["h"], omega_m=snap.meta["omega_m"], omega_l=snap.meta["omega_l"],
            omega_b=snap.meta["omega_b"], n_s=snap.meta["n_s"], sigma8=snap.meta["sigma8"],
        )
        obj.positions = snap["positions"].copy()
        obj.velocities = snap["velocities"].copy()
        obj.a = float(snap.meta["a"])
        obj.solver = PMSolver(int(snap.meta["pm_grid"]))
        obj.steps_taken = int(snap.meta["steps_taken"])
        obj._g = None
        return obj


def run_campaign_scenario(params: Mapping) -> dict:
    """Campaign entry point: one cosmology scenario → summary dict.

    ``params`` are the fields of
    :class:`repro.campaign.spec.CosmologySpec`: lattice ``n_side``,
    start/final scale factors, step size, realization ``seed``, box
    size, and the flat-FRW cosmology knobs.  Runs Zel'dovich ICs
    through the PM comoving integrator and returns JSON-scalar
    observables only — the contract every campaign scenario follows so
    results are content-addressable and bit-comparable across runs.
    """
    cosmo = Cosmology(
        h=float(params.get("h", 0.7)),
        omega_m=float(params.get("omega_m", 0.3)),
        omega_l=float(params.get("omega_l", 0.7)),
        omega_b=float(params.get("omega_b", 0.045)),
        n_s=float(params.get("n_s", 1.0)),
        sigma8=float(params.get("sigma8", 0.9)),
    )
    a_start = float(params.get("a_start", 0.05))
    a_final = float(params.get("a_final", 0.2))
    ics = zeldovich_ics(
        n_side=int(params.get("n_side", 4)),
        box_mpc_h=float(params.get("box_mpc_h", 125.0)),
        a_start=a_start,
        cosmology=cosmo,
        seed=int(params.get("seed", 20031115)),
    )
    rms_initial = ics.rms_displacement()
    sim = ComovingSimulation(ics)
    sim.run_to(a_final, dlna=float(params.get("dlna", 0.05)))
    return {
        "a_final": float(sim.a),
        "steps": int(sim.steps_taken),
        "n_particles": int(ics.n_particles),
        "density_rms": sim.density_rms(),
        "rms_displacement_initial": float(rms_initial),
        "growth_ratio": float(cosmo.growth_factor(a_final) / cosmo.growth_factor(a_start)),
    }


@dataclass(frozen=True)
class CosmologyRunModel:
    """Performance model of a production cosmology run (Section 4.3)."""

    n_particles: float = 134e6
    n_steps: int = 700
    interactions_per_particle: float = 2800.0
    n_procs: int = 250
    proc_mflops: float = 500.0  # sustained treecode rate per processor
    data_written_bytes: float = 1.5e12
    io_duty_efficiency: float = 0.06  # avg-to-peak I/O ratio (checkpoint cadence)
    node: NodeSpec = field(default_factory=lambda: SPACE_SIMULATOR_NODE)

    def __post_init__(self) -> None:
        if min(self.n_particles, self.n_steps, self.n_procs, self.proc_mflops) <= 0:
            raise ValueError("invalid run parameters")
        if not 0 < self.io_duty_efficiency <= 1:
            raise ValueError("io_duty_efficiency must be a fraction")

    @property
    def total_flops(self) -> float:
        """The paper's 10^16."""
        return (
            self.n_particles
            * self.n_steps
            * self.interactions_per_particle
            * FLOPS_PER_INTERACTION
        )

    @property
    def compute_seconds(self) -> float:
        return self.total_flops / (self.n_procs * self.proc_mflops * 1e6)

    @property
    def peak_io_bytes_s(self) -> float:
        """Parallel local-disk peak (paper: "near 7 Gbytes/sec")."""
        disk: DiskSpec = self.node.disk
        return self.n_procs * disk.sustained_mbytes_s * 1e6

    @property
    def average_io_bytes_s(self) -> float:
        """Average rate during I/O phases (paper: 417 Mbyte/s)."""
        return self.peak_io_bytes_s * self.io_duty_efficiency

    @property
    def io_seconds(self) -> float:
        return self.data_written_bytes / self.average_io_bytes_s

    @property
    def wall_seconds(self) -> float:
        return self.compute_seconds + self.io_seconds

    @property
    def achieved_gflops(self) -> float:
        """Sustained rate over the whole run (paper: 112 Gflop/s)."""
        return self.total_flops / self.wall_seconds / 1e9

    @property
    def runs_per_week(self) -> float:
        """Paper: "several 134 million particle ... simulations per week"."""
        return 7 * 86400.0 / self.wall_seconds


#: The run quoted in Section 4.3 (proc_mflops set so compute+I/O fills
#: the stated 24 hours).
PAPER_RUN = CosmologyRunModel()
