"""Bench SR — rank scaling past the paper: treecode steps at P ∈ {512, 1024, 2560}.

The Space Simulator stopped at 294 processors; the related work
(Dubinski's 512-CPU teraflop Beowulf, the 2560-node PACS-CS) points
well past it.  This bench drives one full parallel treecode force
calculation — decomposition sort, branch allgather, latency-hiding
traversal, evaluation — through the discrete-event engine at rank
counts up to 2560 in a single process, the scale the PR-7 engine
refactor (indexed matching, tree collectives, sparse request rounds,
the scale-aware event budget) exists to make routine.

The workload is deliberately communication-dominated: two particles
per rank keeps the arithmetic trivial, so what the record measures is
the simulation machinery itself — events processed, request traffic,
and the virtual time the cost model assigns the collective-heavy step.
``--smoke`` runs the same pipeline at P ∈ {128, 256} in a few seconds
for CI, recorded under its own name so the full-scale baselines stay
unpolluted.
"""

import numpy as np

from repro.core.parallel import ParallelConfig, parallel_tree_accelerations
from repro.simmpi.cost import SpaceSimulatorCost

from _harness import Bench

PARTICLES_PER_RANK = 2


def _run_one(n_ranks: int) -> dict:
    rng = np.random.default_rng(20030512 + n_ranks)
    pos = rng.random((PARTICLES_PER_RANK * n_ranks, 3))
    res = parallel_tree_accelerations(
        pos,
        n_ranks=n_ranks,
        config=ParallelConfig(),
        cost=SpaceSimulatorCost(),
        record_trace=False,  # scaling runs keep memory flat
    )
    assert np.isfinite(res.accelerations).all()
    return {
        "virtual_s": float(res.sim.elapsed),
        "rounds": float(res.comm.get("rounds", 0.0)),
        "requests": float(res.comm.get("requests", 0.0)),
        "prefetch_fetched": float(res.comm.get("prefetch_fetched", 0.0)),
    }


def _build(procs):
    return {p: _run_one(p) for p in procs}


def check(out) -> None:
    for r in out.values():
        assert r["virtual_s"] > 0.0
    # More ranks means more collective/request traffic, never less.
    assert out[max(out)]["requests"] >= out[min(out)]["requests"]


#: Smoke keeps to P in {128, 256}: the full rank ladder runs for minutes.
BENCH = Bench(
    ("scale", "simmpi"), _build, check,
    sizes={"procs": [512, 1024, 2560]}, smoke={"procs": [128, 256]},
    params={"per_rank": PARTICLES_PER_RANK},
    counters=lambda out: {f"{k}_p{p}": v for p, r in out.items() for k, v in r.items()},
    virtual_seconds=lambda out: max(r["virtual_s"] for r in out.values()),
    notes="one parallel treecode force step per rank count, "
          "communication-dominated (2 particles/rank)",
)


if __name__ == "__main__":
    BENCH.cli(__file__, __doc__)
