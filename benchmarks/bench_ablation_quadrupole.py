"""Ablation: quadrupole moments in the far-field expansion.

The HOT code carries quadrupoles (the 70-flop cell interaction); this
ablation zeroes them and measures the accuracy loss at fixed opening
angle — the justification for paying the extra moments instead of
tightening theta.
"""

import numpy as np

from repro.analysis import format_table
from repro.core import build_tree, compute_forces, direct_accelerations, OpeningAngleMAC

from _harness import Bench, sphere_cloud


def _build():
    pos, m = sphere_cloud(np.random.default_rng(9), 1500, 2)
    exact = direct_accelerations(pos, m, eps=0.02)
    rows = []
    for theta in (0.8, 0.6, 0.4):
        tree = build_tree(pos, m)
        with_q = compute_forces(tree, mac=OpeningAngleMAC(theta), eps=0.02)
        tree_mono = build_tree(pos, m)
        tree_mono.quad[:] = 0.0  # monopole-only ablation
        without_q = compute_forces(tree_mono, mac=OpeningAngleMAC(theta), eps=0.02)

        def median_err(res):
            num = np.linalg.norm(res.accelerations - exact.accelerations, axis=1)
            den = np.linalg.norm(exact.accelerations, axis=1) + 1e-30
            return float(np.median(num / den))

        e_q, e_m = median_err(with_q), median_err(without_q)
        rows.append([theta, e_q, e_m, e_m / e_q])
    return rows


def report(rows) -> str:
    return format_table(
        ["theta", "median err (quad)", "median err (mono)", "mono/quad"],
        rows, "Ablation: quadrupole far field vs monopole only",
    )


def check(rows) -> None:
    for theta, e_q, e_m, ratio in rows:
        assert e_m > e_q, theta
    # At the production theta the quadrupole buys at least ~3x accuracy.
    mid = rows[1]
    assert mid[3] > 3.0


BENCH = Bench(
    ("ablation", "treecode"), _build, check, report=report,
    params={"thetas": [0.8, 0.6, 0.4]},
    counters=lambda rows: {"rows": len(rows), "max_gain": max(r[3] for r in rows)},
)


if __name__ == "__main__":
    BENCH.cli(__file__, __doc__)
