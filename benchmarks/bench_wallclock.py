"""Bench wallclock — end-to-end parallel run time, bucket-attributed.

Three legs of the same :func:`repro.core.parallel_nbody_run` problem:

1. **reference** — the kept per-group evaluator on the serial numpy
   backend (the pre-batching configuration, still selectable via
   ``ParallelConfig(eval="pergroup")``);
2. **optimized** — the CSR-pooled batched evaluator on the default
   backend (numpy, a large force evaluation split over threads), run under
   ``wallclock.profile()``; its self seconds per span, rolled up
   through ``wallclock.bucket_of``, give the
   kernel/engine/comm/serialization/other share of every elapsed
   second;
3. **check** — batched on ``NumpyBackend(threads=1)``, to assert the
   optimized leg is *bit-identical* to inline kernels before any
   speedup is reported.

The headline counters are ``wall_reference_s``, ``wall_optimized_s``,
and their ratio ``speedup``, plus one ``bucket_*_share`` counter per
attribution bucket and the two invariants the wallclock layer promises
(``bit_identical``, ``partition_exact``) recorded as 0/1 gates.
``params`` records ``cpu_count`` and the worker count (the usable
cores, the thread count of the default backend) so a speedup measured
on a one-core host is read as what it is: every kernel call runs inline
there, and the gain is the batched evaluator.

``--smoke`` shrinks N so the CI fleet finishes it in seconds; it
reports under the distinct record name ``wallclock_smoke``.
"""

import os
import time

import numpy as np

from repro.core import ParallelConfig, parallel_nbody_run
from repro.core.backend import NumpyBackend, resolve_pool_workers
from repro.obs import self_seconds
from repro.obs import wallclock as wc

from _harness import Bench, sphere_cloud


def _leg(pos, m, ranks, steps, config):
    t0 = time.perf_counter()
    res = parallel_nbody_run(pos, m, n_ranks=ranks, n_steps=steps,
                             dt=1e-3, config=config)
    return time.perf_counter() - t0, res


def _measure(n: int, ranks: int, steps: int, seed: int) -> dict:
    pos, m = sphere_cloud(np.random.default_rng(seed), n, 2.0 / 3.0)
    theta, eps = 0.7, 0.02

    ref_s, ref = _leg(pos, m, ranks, steps,
                      ParallelConfig(theta=theta, eps=eps, eval="pergroup"))

    with wc.profile() as wall:
        opt_s, opt = _leg(pos, m, ranks, steps,
                          ParallelConfig(theta=theta, eps=eps, eval="batched"))
    # The root span "other" closes last; the table must sum to it.
    buckets, elapsed = dict.fromkeys(wc.BUCKETS, 0.0), wall.spans[-1].duration
    for name, seconds in self_seconds(wall).items():
        buckets[wc.bucket_of(name)] += seconds

    chk_s, chk = _leg(pos, m, ranks, steps,
                      ParallelConfig(theta=theta, eps=eps, eval="batched",
                                     backend=NumpyBackend(threads=1)))

    bit_identical = (
        np.array_equal(opt.positions, chk.positions)
        and np.array_equal(opt.velocities, chk.velocities)
        and all(np.array_equal(a, b) for a, b in
                zip(opt.step_accelerations, chk.step_accelerations))
    )
    partition_exact = sum(buckets.values()) == elapsed

    return {
        "n": n,
        "reference_s": ref_s,
        "optimized_s": opt_s,
        "check_s": chk_s,
        "shares": {name: seconds / elapsed for name, seconds in buckets.items()},
        "virtual_seconds": opt.sim.elapsed,
        "bit_identical": bit_identical,
        "partition_exact": partition_exact,
    }


def check(out) -> None:
    assert out["bit_identical"], "threaded batched run diverged from inline batched run"
    assert out["partition_exact"], "wallclock buckets do not partition elapsed"


def _counters(out) -> dict:
    c = {
        "wall_reference_s": out["reference_s"],
        "wall_optimized_s": out["optimized_s"],
        "wall_serial_batched_s": out["check_s"],
        "speedup": out["reference_s"] / out["optimized_s"],
        "bit_identical": float(out["bit_identical"]),
        "partition_exact": float(out["partition_exact"]),
    }
    for name, share in out["shares"].items():
        c[f"bucket_{name}_share"] = share
    return c


#: Smoke shrinks N (and the rank count) so the fleet finishes in seconds.
BENCH = Bench(
    ("wallclock", "parallel", "backend"), _measure, check,
    sizes={"n": 100_000, "ranks": 8, "steps": 1, "seed": 11}, smoke={"n": 4000, "ranks": 4},
    params={"cpu_count": os.cpu_count() or 1, "workers": resolve_pool_workers(None)},
    counters=_counters,
    virtual_seconds=lambda out: out["virtual_seconds"],
    notes=lambda out: "pergroup/serial vs batched/threads at N=1e5"
    if out["n"] == 100_000 else "pergroup/serial vs batched/threads; reduced N",
)


if __name__ == "__main__":
    BENCH.cli(__file__, __doc__)
