"""Bench F8 — regenerate Figure 8 / Section 4.4: rotating core collapse.

Collapses a rotating n=3 polytrope with the full stack — tree gravity,
SPH with artificial viscosity, the stiffening nuclear EOS, gray FLD
neutrino transport — through core bounce, then computes the Figure 8
diagnostic: the specific-angular-momentum distribution versus polar
angle, with the equator carrying orders of magnitude more angular
momentum than the 15-degree polar cone.
"""

from repro.analysis import format_table
from repro.sph import (
    CollapseConfig,
    CollapseSimulation,
    add_rotation,
    angular_momentum_by_angle,
    cone_vs_equator_angular_momentum,
    polytrope_particles,
)

from _harness import Bench


def _build(n_particles, max_steps):
    pos, m, u = polytrope_particles(n_particles, seed=11)
    vel = add_rotation(pos, omega0=0.45, r0=0.25)
    cfg = CollapseConfig()
    sim = CollapseSimulation(pos, vel, m, u, cfg)
    for _ in range(max_steps):
        sim.step()
        if sim.history.bounced(cfg.eos.rho_nuc):
            break
    centers, j = angular_momentum_by_angle(sim.positions, sim.velocities, m)
    l_cone, l_eq = cone_vs_equator_angular_momentum(sim.positions, sim.velocities, m)
    return sim, cfg, centers, j, l_cone, l_eq


def report(result) -> str:
    sim, cfg, centers, j, l_cone, l_eq = result
    hist = sim.history
    return "\n".join([
        f"collapse: central density {hist.central_density[0]:.1f} -> "
        f"peak {hist.max_density:.1f} (nuclear density {cfg.eos.rho_nuc}); "
        f"bounced: {hist.bounced(cfg.eos.rho_nuc)} at t = {sim.time:.3f}",
        f"peak neutrino luminosity: {max(hist.neutrino_luminosity):.3e} (code units)",
        format_table(
            ["polar angle (deg)", "mean |j_z|"],
            [[c, val] for c, val in zip(centers, j)],
            "Figure 8 diagnostic: specific angular momentum vs polar angle",
        ),
        f"total |L_z|: 15-degree polar cone {l_cone:.3e} vs equatorial band {l_eq:.3e} "
        f"-> ratio {l_eq / max(l_cone, 1e-300):.0f} (paper: ~2 orders of magnitude)",
    ])


def check(result) -> None:
    sim, cfg, _, j, l_cone, l_eq = result
    hist = sim.history
    ratio = l_eq / max(l_cone, 1e-300)
    assert hist.bounced(cfg.eos.rho_nuc)
    if len(sim.positions) >= 350:  # 200 particles resolve the profile too coarsely (4.6x)
        assert j[-1] > 5.0 * max(j[0], 1e-300)  # bulk of j along the equator
    assert ratio > 30.0                      # approaching the paper's 100x
    assert max(hist.neutrino_luminosity) > 0


#: Smoke collapses a smaller polytrope for fewer steps: the
#: 350-particle collapse-to-bounce run costs ~3 s.
BENCH = Bench(
    ("figure", "supernova", "sph"), _build, check, report=report,
    sizes={"n_particles": 350, "max_steps": 160}, smoke={"n_particles": 200, "max_steps": 90},
    counters=lambda r: {"l_cone": r[4], "l_equator": r[5], "angle_bins": len(r[2])},
)


if __name__ == "__main__":
    BENCH.cli(__file__, __doc__)
