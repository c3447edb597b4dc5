"""The parallel hashed oct-tree on a simulated Beowulf cluster.

Runs the full HOT pipeline — parallel key sort, branch exchange,
tree traversal with asynchronous batched messages — on SimMPI with the
calibrated Space Simulator cost model, and reports how virtual wall
time, communication, and per-processor Mflop/s change with processor
count: the scaling story behind Table 6.

Run:  python examples/parallel_treecode_demo.py
      python examples/parallel_treecode_demo.py --trace out.json
          (writes a Chrome trace_event file of the 8-rank run; open it
          at https://ui.perfetto.dev or chrome://tracing)
      python examples/parallel_treecode_demo.py --analyze
          (wait-state classification, per-rank load balance, and the
          critical path of the 8-rank run — same analyses as
          ``python -m repro.obs analyze``, without the trace file)
"""

import argparse
import json

import numpy as np

from repro.analysis import format_table
from repro.core import ParallelConfig, direct_accelerations, parallel_tree_accelerations
from repro.obs import chrome_trace
from repro.simmpi import SpaceSimulatorCost, render_timeline


def cosmological_sphere(n: int, seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    """The paper's standard benchmark problem: a spherical region of a
    cosmological initial-condition particle set."""
    rng = np.random.default_rng(seed)
    r = rng.random(n) ** (1.0 / 3.0)
    d = rng.standard_normal((n, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return r[:, None] * d, np.full(n, 1.0 / n)


def write_trace(path: str, sim) -> None:
    """Export the run's spans as Chrome trace_event JSON, cross-checking
    the trace against the engine's own per-rank accounting first."""
    doc = chrome_trace(sim.observer, process_name="parallel treecode")
    for rank, stats in enumerate(sim.stats):
        traced = sum(
            span.duration
            for span in sim.observer.spans
            if span.track == rank and span.cat == "compute"
        )
        if abs(traced - stats.compute_s) > 1e-9:
            raise AssertionError(
                f"rank {rank}: traced compute {traced!r} != stats {stats.compute_s!r}"
            )
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    print(f"\nwrote Chrome trace ({len(doc['traceEvents'])} events) to {path}; "
          f"per-rank compute totals match engine stats to 1e-9.")


def analyze(sim) -> None:
    """Wait-state, load-balance, and critical-path diagnosis of a run."""
    from repro.obs import critical_path, load_imbalance, wait_summary
    from repro.obs.analysis import (
        format_critical_path,
        format_imbalance,
        format_wait_summary,
    )

    print()
    print(format_wait_summary(wait_summary(sim.observer)))
    print()
    print(format_imbalance(load_imbalance(sim.observer, sim.elapsed)))
    print()
    print(format_critical_path(critical_path(sim.observer, sim.elapsed)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", metavar="OUT.json", default=None,
                        help="write the 8-rank run as Chrome trace_event JSON")
    parser.add_argument("--analyze", action="store_true",
                        help="print wait-state / load-balance / critical-path "
                             "diagnosis of the 8-rank run")
    parser.add_argument("--comm", default="async", choices=("async", "blocking"),
                        help="communication schedule: latency-hiding batched "
                             "requests (async, default) or the blocking "
                             "request-per-cell reference — forces are "
                             "bit-identical either way")
    opts = parser.parse_args()
    n = 4000
    pos, masses = cosmological_sphere(n)
    cfg = ParallelConfig(theta=0.8, eps=0.01, kernel_efficiency=1357.0 / 5060.0,
                         comm=opts.comm)
    print(f"spherical cosmology problem: N = {n}, theta = {cfg.theta}, "
          f"comm = {cfg.comm}")

    exact = direct_accelerations(pos, masses, eps=cfg.eps)
    rows = []
    for ranks in (1, 2, 4, 8):
        result = parallel_tree_accelerations(
            pos, masses, n_ranks=ranks, config=cfg, cost=SpaceSimulatorCost()
        )
        err = np.linalg.norm(result.accelerations - exact.accelerations, axis=1)
        rel = float(np.median(err / np.linalg.norm(exact.accelerations, axis=1)))
        sim = result.sim
        rows.append([
            ranks,
            sim.elapsed * 1e3,
            sim.total_compute_s / ranks * 1e3,
            np.mean([s.blocked_s for s in sim.stats]) * 1e3,
            sim.total_bytes_sent / 1e6,
            result.mflops_per_proc,
            f"{rel:.1e}",
        ])
    print()
    print(format_table(
        ["ranks", "virtual ms", "compute ms/rank", "blocked ms/rank",
         "MB sent", "Mflops/proc", "median err"],
        rows,
        "Parallel treecode on the simulated Space Simulator",
    ))
    print("\nNote how communication wait grows with processor count while the\n"
          "median force error stays pinned at the MAC level — the balance the\n"
          "paper's Table 6 tracks across a decade of machines.  Re-run with\n"
          "--comm blocking to see what the latency-hiding layer buys.")

    final = parallel_tree_accelerations(
        pos, masses, n_ranks=8, config=cfg, cost=SpaceSimulatorCost()
    )
    print()
    print(render_timeline(final.sim.trace, final.sim.elapsed))
    if opts.analyze:
        analyze(final.sim)
    if opts.trace:
        write_trace(opts.trace, final.sim)


if __name__ == "__main__":
    main()
