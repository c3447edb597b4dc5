"""Bench wallclock — end-to-end parallel run time, bucket-attributed.

Three legs of the same :func:`repro.core.parallel_nbody_run` problem:

1. **reference** — the kept per-group evaluator on the serial numpy
   backend (the pre-batching configuration, still selectable via
   ``ParallelConfig(eval="pergroup")``);
2. **optimized** — the CSR-pooled batched evaluator on the
   ``multiprocess`` backend, run under ``wallclock.profile()`` so the
   record carries the kernel/engine/comm/serialization/other share of
   every elapsed second;
3. **check** — batched on serial numpy, to assert the multiprocess leg
   is *bit-identical* to serial before any speedup is reported.

The headline counters are ``wall_reference_s``, ``wall_optimized_s``,
and their ratio ``speedup``, plus one ``bucket_*_share`` counter per
attribution bucket and the two invariants the wallclock layer promises
(``bit_identical``, ``partition_exact``) recorded as 0/1 gates.
``params`` records ``cpu_count`` and the worker count so a speedup
measured on a one-core host is read as what it is: the multiprocess
backend falls back inline there, and the gain is the batched evaluator.

``--smoke`` shrinks N so the CI fleet finishes it in seconds; it
reports under the distinct record name ``wallclock_smoke``.
"""

import os
import time

import numpy as np

from repro.core import ParallelConfig, parallel_nbody_run
from repro.core.backend_wall import WallBackend
from repro.core.procpool import MultiprocessBackend, resolve_pool_workers
from repro.obs import self_seconds
from repro.obs import wallclock as wc

from _harness import cli, run_main, sphere_cloud

#: Reduced smoke: a much smaller N than the full bench, so it reports
#: under a distinct record name to keep full-mode baselines clean.
FLEET = {"tags": ("wallclock", "parallel", "backend"), "smoke": "reduced"}


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

    mp = MultiprocessBackend()
    try:
        with wc.profile() as wall:
            opt_s, opt = _leg(
                pos, m, ranks, steps,
                ParallelConfig(theta=theta, eps=eps, eval="batched",
                               backend=WallBackend(mp)))
    finally:
        mp.close()
    # The root span "other" closes last; the table must sum to it.
    buckets, elapsed = self_seconds(wall), wall.spans[-1].duration

    chk_s, chk = _leg(pos, m, ranks, steps,
                      ParallelConfig(theta=theta, eps=eps, eval="batched"))

    bit_identical = (
        np.array_equal(opt.positions, chk.positions)
        and np.array_equal(opt.velocities, chk.velocities)
        and all(np.array_equal(a, b) for a, b in
                zip(opt.step_accelerations, chk.step_accelerations))
    )
    partition_exact = sum(buckets.values()) == elapsed

    return {
        "reference_s": ref_s,
        "optimized_s": opt_s,
        "check_s": chk_s,
        "shares": {name: buckets.get(name, 0.0) / elapsed for name in wc.BUCKETS},
        "virtual_seconds": opt.sim.elapsed,
        "bit_identical": bit_identical,
        "partition_exact": partition_exact,
    }


def check(out) -> None:
    assert out["bit_identical"], "multiprocess batched run diverged from serial batched run"
    assert out["partition_exact"], "wallclock buckets do not partition elapsed"


def main(smoke: bool = False) -> dict:
    n = 4000 if smoke else 100_000
    ranks, steps, seed = (4, 1, 11) if smoke else (8, 1, 11)

    def counters(out):
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

    return run_main(
        "wallclock_smoke" if smoke else "wallclock",
        lambda: _measure(n, ranks, steps, seed), check=check,
        params={
            "n": n, "ranks": ranks, "steps": steps, "seed": seed,
            "cpu_count": os.cpu_count() or 1,
            "workers": resolve_pool_workers(None),
        },
        counters=counters,
        virtual_seconds=lambda out: out["virtual_seconds"],
        notes=("pergroup/serial vs batched/multiprocess; reduced N"
               if smoke else
               "pergroup/serial vs batched/multiprocess at N=1e5"),
    )


if __name__ == "__main__":
    cli(main, __doc__)
