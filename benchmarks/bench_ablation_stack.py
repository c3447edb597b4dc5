"""Ablation: message-passing stack and fabric under the treecode.

The application-level version of the paper's Linpack finding (switching
MPICH -> LAM bought 14%): run the identical parallel treecode under
cost models built from each Figure 2 stack, and with the inter-switch
trunk bottleneck removed, and compare virtual wall time.
"""

import numpy as np

from repro.analysis import format_table
from repro.core import ParallelConfig, parallel_tree_accelerations
from repro.network import FIGURE2_STACKS
from repro.simmpi import SpaceSimulatorCost

from _harness import Bench, sphere_cloud


def _build(n, n_ranks):
    pos, m = sphere_cloud(np.random.default_rng(8), n, 1.0 / 3.0)
    cfg = ParallelConfig(theta=0.8, eps=0.01, kernel_efficiency=0.27)
    rows = []
    for stack in FIGURE2_STACKS:
        cost = SpaceSimulatorCost(stack=stack)
        sim = parallel_tree_accelerations(pos, m, n_ranks=n_ranks, config=cfg, cost=cost).sim
        rows.append([stack.name, sim.elapsed * 1e3,
                     np.mean([s.blocked_s for s in sim.stats]) * 1e3,
                     sim.parallel_efficiency()])
    return rows


def report(rows) -> str:
    return format_table(
        ["stack", "virtual ms", "blocked ms/rank", "parallel eff"],
        rows, "Ablation: software stack under the parallel treecode",
    )


def check(rows) -> None:
    times = {r[0]: r[1] for r in rows}
    # Raw TCP is the floor; mpich 1.2.5 the slowest MPI, as in Fig 2.
    assert times["TCP"] <= min(times.values()) + 1e-9
    assert times["mpich 1.2.5"] >= max(v for k, v in times.items())
    # The LAM -> mpich gap at the application level is a few percent to
    # tens of percent, same order as the paper's Linpack delta.
    gap = times["mpich 1.2.5"] / times["LAM 6.5.9 -O"]
    assert 1.0 < gap < 1.6


#: Smoke shrinks the cloud and the rank count: one treecode force
#: solve per Figure 2 stack costs ~3 s at N=3000/P=8.
BENCH = Bench(
    ("ablation", "network", "treecode"), _build, check, report=report,
    sizes={"n": 3000, "n_ranks": 8}, smoke={"n": 1200, "n_ranks": 4},
    params={"stacks": [s.name for s in FIGURE2_STACKS]},
    counters=lambda rows: {"rows": len(rows)},
    virtual_seconds=lambda rows: sum(r[1] for r in rows) / 1e3,
)


if __name__ == "__main__":
    BENCH.cli(__file__, __doc__)
