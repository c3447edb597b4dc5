"""Ablation: space-filling curve — Morton versus Hilbert.

Section 4.2 chooses Morton keys for their arithmetic convenience while
"maintaining as much spatial locality as possible".  This ablation
quantifies what the alternative buys: Hilbert ordering has strictly
unit-step adjacency (no diagonal block jumps), slightly tighter curve
locality, and a modestly smaller domain-decomposition surface — at the
cost of losing the parent/child bit arithmetic the whole hashed-tree
design rests on.
"""

import numpy as np

from repro.analysis import format_table
from repro.core import BoundingBox, keys_from_positions
from repro.core.hilbert import (
    curve_jump_stats,
    decomposition_surface,
    hilbert_keys_from_positions,
)

from _harness import Bench


def _clouds(n=3000):
    rng = np.random.default_rng(12)
    uniform = rng.random((n, 3))
    r = rng.random(n) ** 3
    d = rng.standard_normal((n, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    clustered = 0.5 + 0.45 * r[:, None] * d
    return {"uniform": uniform, "clustered": clustered}


def _build(n):
    box = BoundingBox(np.zeros(3), 1.0)
    rows = []
    for name, pos in _clouds(n).items():
        orders = {
            "Morton": np.argsort(keys_from_positions(pos, box)),
            "Hilbert": np.argsort(hilbert_keys_from_positions(pos, box)),
            "random": np.random.default_rng(0).permutation(pos.shape[0]),
        }
        for curve, order in orders.items():
            med, mx = curve_jump_stats(pos, order)
            cross = decomposition_surface(pos, order, 8, radius=0.05)
            rows.append([name, curve, med, mx, cross])
    return rows


def report(rows) -> str:
    return format_table(
        ["distribution", "ordering", "median jump", "max jump", "split pairs"],
        rows, "Ablation: space-filling curve locality (8-way decomposition)",
    )


def check(rows) -> None:
    by = {(r[0], r[1]): r for r in rows}
    for dist in ("uniform", "clustered"):
        morton, hilbert, rand = by[(dist, "Morton")], by[(dist, "Hilbert")], by[(dist, "random")]
        # Hilbert never jumps as far as Morton's worst diagonal.
        assert hilbert[3] < morton[3], dist
        # Both curves have far tighter typical jumps than random order.
        assert morton[2] < 0.3 * rand[2], dist
        assert hilbert[2] < 0.3 * rand[2], dist
    # Decomposition surface: meaningful where the interaction radius is
    # small against the local density (the uniform cloud); in the
    # clustered core at this radius nearly every pair is a neighbor and
    # no ordering can help — which the numbers show.
    morton, hilbert, rand = by[("uniform", "Morton")], by[("uniform", "Hilbert")], by[("uniform", "random")]
    assert morton[4] < 0.2 * rand[4]
    assert hilbert[4] < 0.2 * rand[4]
    assert hilbert[4] <= 1.2 * morton[4]


#: Smoke shrinks the clouds: the 3000-point decomposition-surface scan
#: costs ~3 s (pairwise radius counts).
BENCH = Bench(
    ("ablation", "treecode"), _build, check, report=report,
    sizes={"n": 3000}, smoke={"n": 1200},
    params={"n_pieces": 8, "radius": 0.05},
    counters=lambda rows: {"rows": len(rows)},
)


if __name__ == "__main__":
    BENCH.cli(__file__, __doc__)
