"""Bench S31 — regenerate the Section 3.1 switch-backplane measurements.

The hypercube-pairs probe: intra-module pairs are non-blocking; 16
streams crossing one module boundary total ~6000 Mbit/s; traffic
between the two chassis shares the 8 Gbit/s trunk, which "limits the
scaling of codes running on more than about 256 processors".
"""

from repro.analysis import format_table
from repro.network import (
    SPACE_SIMULATOR_FABRIC,
    cross_module_flows,
    effective_pairwise_mbits,
    hypercube_pairs,
    pair_flows,
)

from _harness import Bench


def _build():
    fabric = SPACE_SIMULATOR_FABRIC
    cross16 = fabric.aggregate_mbits(cross_module_flows(fabric, 0, 1, n_streams=16))
    intra = fabric.flow_rates(pair_flows(fabric, hypercube_pairs(16, 0)))
    sweep = [(p, effective_pairwise_mbits(fabric, p)) for p in (16, 64, 128, 224, 256, 294)]
    return cross16, intra, sweep


def report(result) -> str:
    cross16, intra, sweep = result
    return "\n".join([
        f"intra-module pair rate: {min(intra):.0f} Mbit/s per flow (non-blocking)",
        f"16->16 cross-module aggregate: {cross16:.0f} Mbit/s (paper: ~6000)",
        format_table(
            ["procs", "worst hypercube pair Mbit/s"],
            [[p, r] for p, r in sweep],
            "Per-pair bandwidth under simultaneous hypercube traffic",
        ),
    ])


def check(result) -> None:
    cross16, intra, sweep = result
    assert min(intra) == 1000.0
    assert abs(cross16 - 6000.0) < 100.0
    by_p = dict(sweep)
    assert by_p[16] == 1000.0
    assert by_p[294] < 0.5 * by_p[224]  # the >256-processor cliff


BENCH = Bench(
    ("section", "network"), _build, check, report=report,
    params={"n_streams": 16},
    counters=lambda r: {"cross16_mbits": r[0], "sweep_points": len(r[2])},
)


if __name__ == "__main__":
    BENCH.cli(__file__, __doc__)
