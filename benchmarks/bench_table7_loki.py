"""Bench T7 — regenerate Table 7: the Loki bill of materials (Sept 1996)."""

from repro.analysis import format_table
from repro.cluster import LOKI_BOM

from _harness import Bench


def _build():
    rows = [
        [item.quantity, item.unit_price if item.unit_price is not None else "", item.total, item.description]
        for item in LOKI_BOM.items
    ]
    rows.append(["", "", LOKI_BOM.total_cost,
                 f"Total  (${LOKI_BOM.cost_per_node:.0f}/node, "
                 f"{LOKI_BOM.peak_mflops_per_node:.0f} Mflop/s peak/node)"])
    return rows


def report(rows) -> str:
    return format_table(["Qty", "Price", "Ext.", "Description"], rows,
                        "Table 7: Loki architecture and price (September 1996)")


def check(rows) -> None:
    assert LOKI_BOM.total_cost == 51_379.0
    assert round(LOKI_BOM.cost_per_node) == 3211


BENCH = Bench(
    ("table", "hardware"), _build, check, report=report,
    counters=lambda rows: {"total_cost": LOKI_BOM.total_cost, "rows": len(rows)},
)


if __name__ == "__main__":
    BENCH.cli(__file__, __doc__)
