"""Bench F6 — regenerate Figure 6: Morton curve and 2-D tree.

Left panel: the self-similar load-balancing curve — centrally
condensed 2-D points ordered along the Morton curve and cut into
equal-work processor domains.  Right panel: the adaptive tree over the
same distribution.  The bench emits the underlying data (curve order,
domain boundaries, cell statistics) and asserts the properties the
figure illustrates: curve locality, contiguous balanced domains, and
deeper tree cells where the particles concentrate.
"""

import numpy as np

from repro.analysis import format_table
from repro.core import build_tree, decompose, morton_traversal_order_2d

from _harness import Bench


def _points(n=3000, seed=42):
    rng = np.random.default_rng(seed)
    r = rng.random(n) ** 3
    ang = rng.random(n) * 2 * np.pi
    return 0.5 + 0.45 * np.column_stack([r * np.cos(ang), r * np.sin(ang)])


def _build():
    pts = _points()
    order = morton_traversal_order_2d(pts)
    curve = pts[order]
    jumps = np.linalg.norm(np.diff(curve, axis=0), axis=1)
    pos3d = np.column_stack([pts, np.full(pts.shape[0], 0.5)])
    dd = decompose(pos3d, n_pieces=8)
    tree = build_tree(pos3d, bucket_size=8)
    return pts, jumps, dd, tree


def report(result) -> str:
    pts, jumps, dd, tree = result
    levels, counts = np.unique(tree.level, return_counts=True)
    return "\n".join([
        f"Morton curve over {pts.shape[0]} centrally condensed points:",
        f"  median inter-point jump along curve: {np.median(jumps):.4f} box units",
        f"  random-order jump for comparison   : "
        f"{np.linalg.norm(np.diff(pts, axis=0), axis=1).mean():.4f}",
        format_table(
            ["domain", "particles", "work share"],
            [[p, int(c), s] for p, (c, s) in enumerate(zip(dd.counts(), dd.work_shares()))],
            "Equal-work domains along the curve (8 processors)",
        ),
        format_table(["tree level", "cells"], list(map(list, zip(levels, counts))),
                     "Adaptive tree over the condensed distribution"),
    ])


def check(result) -> None:
    pts, jumps, dd, tree = result
    # Curve locality.
    assert np.median(jumps) < 0.03
    # Domains are balanced and contiguous.
    assert np.all(np.abs(dd.work_shares() - 1.0) < 0.05)
    # The tree refines where particles concentrate: max level well
    # beyond the uniform-expectation log8(N/bucket).
    uniform_depth = np.log(pts.shape[0] / 8) / np.log(8)
    assert tree.level.max() > uniform_depth + 1


BENCH = Bench(
    ("figure", "treecode"), _build, check, report=report,
    params={"n_pieces": 8, "bucket_size": 8},
    counters=lambda r: {
        "n_points": int(r[0].shape[0]),
        "median_jump": float(np.median(r[1])),
        "n_cells": int(r[3].n_cells),
    },
)


if __name__ == "__main__":
    BENCH.cli(__file__, __doc__)
