"""Bench T1 — regenerate Table 1: the Space Simulator bill of materials.

Prints the line items and the derived figures the caption quotes
($483,855 total, $1646/node average with $728 of network, 5.06 Gflop/s
peak per node).
"""

from repro.analysis import format_table
from repro.cluster import SPACE_SIMULATOR_BOM

from _harness import Bench


def _build():
    bom = SPACE_SIMULATOR_BOM
    rows = [
        [item.quantity, item.unit_price if item.unit_price is not None else "", item.total, item.description]
        for item in bom.items
    ]
    rows.append(["", "", bom.total_cost, f"Total  (${bom.cost_per_node:.0f}/node, "
                 f"{bom.peak_mflops_per_node/1000:.2f} Gflop/s peak/node)"])
    return bom, rows


def report(result) -> str:
    bom, rows = result
    return "\n".join([
        format_table(["Qty", "Price", "Ext.", "Description"], rows,
                     "Table 1: Space Simulator architecture and price (September 2002)"),
        f"network share per node: ${bom.network_cost_per_node:.0f} "
        f"({100*bom.network_fraction:.0f}%)",
    ])


def check(result) -> None:
    bom, _ = result
    assert bom.total_cost == 483_855.0
    assert round(bom.cost_per_node) == 1646
    assert abs(bom.peak_gflops - 1487.6) < 1.0


BENCH = Bench(
    ("table", "hardware"), _build, check, report=report,
    counters=lambda r: {
        "total_cost": r[0].total_cost,
        "cost_per_node": r[0].cost_per_node,
        "rows": len(r[1]),
    },
)


if __name__ == "__main__":
    BENCH.cli(__file__, __doc__)
