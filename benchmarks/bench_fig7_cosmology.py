"""Bench F7 — regenerate Figure 7 / Section 4.3: the cosmology run.

Two halves:

1. **Real run, scaled down** — a 125 Mpc/h LCDM box (the figure's
   size) evolved from a = 0.1 to z = 0.3 with the PM comoving
   integrator; halos are found with FoF and clustering measured with
   the two-point correlation function — the data products behind the
   figure's density image.
2. **Run model at paper scale** — the 134-million-particle, 700-step,
   250-processor production run: 10^16 flops in ~24 hours (112
   Gflop/s), 1.5 TB written, 417 MB/s average and ~7 GB/s peak I/O.
3. **Communication-mode comparison** — the production force solve on
   the simulated cluster at P = 8, blocking request/reply versus the
   latency-hiding async layer (batched requests + cell cache + LET
   prefetch).  The headline number is the blocked-span fraction from
   :func:`repro.obs.load_imbalance` — the paper's point that hiding
   latency, not adding bandwidth, is what makes the treecode scale.
"""

import numpy as np

from repro.analysis import format_table
from repro.core import ParallelConfig, parallel_tree_accelerations
from repro.cosmology import (
    LCDM,
    PAPER_RUN,
    ComovingSimulation,
    correlation_function,
    friends_of_friends,
    zeldovich_ics,
)
from repro.obs import load_imbalance, wait_summary
from repro.simmpi import SpaceSimulatorCost

from _harness import Bench, comm_health_counters, sphere_cloud


def _comm_modes(n=1200, ranks=8, seed=9):
    """Blocked-fraction comparison of the two communication schedules.

    Same particles, same MAC, same cost model — only ``config.comm``
    changes, so the forces are bit-identical and any difference in
    blocked time is purely the communication strategy.
    """
    pos, masses = sphere_cloud(np.random.default_rng(seed), n, 2.0 / 3.0)
    out = {}
    for mode in ("blocking", "async"):
        res = parallel_tree_accelerations(
            pos, masses, n_ranks=ranks,
            config=ParallelConfig(theta=0.7, eps=0.02, comm=mode),
            cost=SpaceSimulatorCost(),
        )
        sim = res.sim
        out[mode] = {
            "blocked_frac": load_imbalance(sim.observer, sim.elapsed)["blocked_frac"],
            "virtual_ms": sim.elapsed * 1e3,
            "mbytes_sent": sim.total_bytes_sent / 1e6,
            "accelerations": res.accelerations,
            "comm_stats": dict(res.comm),
            "waits": wait_summary(sim.observer),
        }
    return out


def _build(n_side, comm_n):
    a_final = 1.0 / 1.3  # z = 0.3, the figure's epoch
    ics = zeldovich_ics(n_side=n_side, box_mpc_h=125.0, a_start=0.1, cosmology=LCDM,
                        seed=7, k_cut_fraction=0.8)
    sim = ComovingSimulation(ics)
    rms0 = sim.density_rms()
    sim.run_to(a_final, dlna=0.05)
    rms1 = sim.density_rms()
    halos = friends_of_friends(sim.positions, min_members=8)
    edges = np.array([0.02, 0.05, 0.1, 0.2, 0.35, 0.5])
    centers, xi = correlation_function(sim.positions, edges)
    comm = _comm_modes(n=comm_n)
    return sim, rms0, rms1, halos, centers, xi, comm


def report(result) -> str:
    sim, rms0, rms1, halos, centers, xi, comm = result
    model = PAPER_RUN
    return "\n".join([
        f"box evolved to a = {sim.a:.3f} (z = {1/sim.a - 1:.2f}; paper figure: z = 0.3, "
        f"{LCDM.lookback_gyr(0.3):.1f} Gyr lookback)",
        f"density contrast rms: {rms0:.3f} -> {rms1:.3f} "
        f"(structure formed: x{rms1/rms0:.1f})",
        f"FoF halos (>= 8 particles): {halos.n_halos}; "
        f"largest {halos.halos[0].n_members if halos.n_halos else 0} particles",
        format_table(
            ["r (box units)", "xi(r)"],
            [[c, x] for c, x in zip(centers, xi)],
            "Two-point correlation function at z = 0.3",
        ),
        "",
        format_table(
            ["quantity", "paper", "model"],
            [
                ["total flops", 1e16, model.total_flops],
                ["wall hours", 24.0, model.wall_seconds / 3600.0],
                ["sustained Gflop/s", 112.0, model.achieved_gflops],
                ["avg I/O Mbyte/s", 417.0, model.average_io_bytes_s / 1e6],
                ["peak I/O Gbyte/s", 7.0, model.peak_io_bytes_s / 1e9],
            ],
            "Section 4.3 production-run model (134M particles, 250 procs)",
        ),
        "",
        format_table(
            ["comm mode", "blocked frac", "virtual ms", "MB sent"],
            [[m, d["blocked_frac"], d["virtual_ms"], d["mbytes_sent"]]
             for m, d in comm.items()],
            "Force solve at P = 8: blocking vs latency-hiding comm",
        ),
    ])


def check(result) -> None:
    sim, rms0, rms1, halos, _, xi, comm = result
    assert rms1 > 4.0 * rms0          # structure grew into the nonlinear regime
    if len(sim.positions) >= 20**3:  # a 10^3 smoke box is too coherent to form halos
        assert halos.n_halos >= 3          # halos formed
        assert xi[0] > xi[1] > abs(xi[-1])  # clustering declines with scale
        assert xi[0] > 0.6                 # strongly clustered at small separations
    assert abs(PAPER_RUN.achieved_gflops - 112.0) / 112.0 < 0.15
    # The latency-hiding layer must reduce time spent blocked without
    # touching the physics.
    assert np.array_equal(comm["async"]["accelerations"],
                          comm["blocking"]["accelerations"])
    assert comm["async"]["blocked_frac"] < comm["blocking"]["blocked_frac"]


def _counters(r) -> dict:
    asynchronous = r[6]["async"]
    return {
        "rms_initial": r[1],
        "rms_final": r[2],
        "n_halos": r[3].n_halos,
        "xi_bins": len(r[5]),
        "blocked_frac_blocking": r[6]["blocking"]["blocked_frac"],
        "blocked_frac_async": asynchronous["blocked_frac"],
        "comm_virtual_ms_blocking": r[6]["blocking"]["virtual_ms"],
        "comm_virtual_ms_async": asynchronous["virtual_ms"],
        # The async force solve: the fleet gate's eyes on the
        # Section 4 communication story.
        **comm_health_counters(asynchronous["comm_stats"],
                               asynchronous["waits"]["by_cause"]),
    }


#: Smoke shrinks the PM grid and the comm problem: the full z=0.3 box
#: plus a P=8 force solve costs ~9 s.
BENCH = Bench(
    ("figure", "cosmology", "comm"), _build, check, report=report,
    sizes={"n_side": 20, "comm_n": 1200}, smoke={"n_side": 10, "comm_n": 500},
    params={"box_mpc_h": 125.0, "a_final": 1.0 / 1.3},
    counters=_counters,
)


if __name__ == "__main__":
    BENCH.cli(__file__, __doc__)
