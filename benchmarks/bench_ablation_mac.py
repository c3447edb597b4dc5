"""Ablation: the multipole acceptance criterion.

The treecode's fundamental accuracy-versus-cost dial.  Sweeps the
Barnes-Hut opening angle and compares against the Salmon-Warren-style
absolute-error MAC at matched cost, quantifying the paper's claim that
"properly used, these methods do not contribute significantly to the
total solution error".
"""

import numpy as np

from repro.analysis import format_table
from repro.core import (
    AbsoluteErrorMAC,
    direct_accelerations,
    tree_accelerations,
)

from _harness import Bench, sphere_cloud


def _build():
    pos, m = sphere_cloud(np.random.default_rng(5), 1500, 1.0 / 3.0)
    exact = direct_accelerations(pos, m, eps=0.02)
    a_scale = float(np.linalg.norm(exact.accelerations, axis=1).mean())
    rows = []
    for theta in (1.0, 0.8, 0.6, 0.4, 0.25):
        res = tree_accelerations(pos, m, theta=theta, eps=0.02)
        rel = np.linalg.norm(res.accelerations - exact.accelerations, axis=1) / (
            np.linalg.norm(exact.accelerations, axis=1) + 1e-30
        )
        total = res.counts.p2p + res.counts.p2c
        rows.append([f"BH theta={theta}", np.median(rel), np.percentile(rel, 99),
                     total, total / (pos.shape[0] ** 2)])
    budgets = (1e-2, 1e-3, 1e-4)
    for budget_frac in budgets:
        mac = AbsoluteErrorMAC(budget_frac * a_scale)
        res = tree_accelerations(pos, m, eps=0.02, mac=mac)
        rel = np.linalg.norm(res.accelerations - exact.accelerations, axis=1) / (
            np.linalg.norm(exact.accelerations, axis=1) + 1e-30
        )
        total = res.counts.p2p + res.counts.p2c
        rows.append([f"abs-err {budget_frac:g}", np.median(rel), np.percentile(rel, 99),
                     total, total / (pos.shape[0] ** 2)])
    return rows, budgets


def report(result) -> str:
    rows, _ = result
    return format_table(
        ["MAC", "median rel err", "99th pct err", "interactions", "frac of N^2"],
        rows, "Ablation: opening criterion vs accuracy vs cost",
    )


def check(result) -> None:
    rows, budgets = result
    bh = [r for r in rows if r[0].startswith("BH")]
    # Tighter theta -> monotonically better accuracy and higher cost.
    errs = [r[1] for r in bh]
    costs = [r[3] for r in bh]
    assert all(a >= b for a, b in zip(errs, errs[1:]))
    assert all(a <= b for a, b in zip(costs, costs[1:]))
    # The absolute-error MAC honors its budget: the 99th-percentile
    # error stays an order of magnitude inside each requested bound
    # (the analytic criterion is conservative).
    abs_rows = [r for r in rows if r[0].startswith("abs")]
    for (name, med, e99, *_), budget in zip(abs_rows, budgets):
        assert e99 < budget, name
    # And tighter budgets yield tighter medians.
    meds = [r[1] for r in abs_rows]
    assert all(a >= b for a, b in zip(meds, meds[1:]))


BENCH = Bench(
    ("ablation", "treecode"), _build, check, report=report,
    params={"thetas": [1.0, 0.8, 0.6, 0.4, 0.25]},
    counters=lambda r: {"rows": len(r[0]), "budgets": len(r[1])},
)


if __name__ == "__main__":
    BENCH.cli(__file__, __doc__)
