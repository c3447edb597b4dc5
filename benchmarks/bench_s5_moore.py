"""Bench S5 — regenerate the Section 5 Moore's-law analysis.

Six years, four doublings: disk $/GB beat Moore by ~7x, memory by ~2x;
NPB class B throughput improved 12.6/10.0/15.5/15.5x at half the
per-processor cost; the N-body code's 140x sits on the 150x Moore line
given the 9.4x price ratio.
"""

from repro.analysis import format_table
from repro.cluster import (
    LOKI_BOM,
    LOKI_NPB_CLASS_B_16P,
    NBODY_LOKI_VS_SS,
    SPACE_SIMULATOR_BOM,
    SS_NPB_CLASS_B_16P,
    disk_dollars_per_gb,
    moore_factor,
    npb_improvement_ratios,
    npb_price_performance_vs_moore,
    ram_dollars_per_mb,
)

from _harness import Bench


def _build():
    commodity = {
        "disk $/GB": (disk_dollars_per_gb(LOKI_BOM), disk_dollars_per_gb(SPACE_SIMULATOR_BOM)),
        "RAM $/MB": (ram_dollars_per_mb(LOKI_BOM), ram_dollars_per_mb(SPACE_SIMULATOR_BOM)),
    }
    return commodity, npb_improvement_ratios(), npb_price_performance_vs_moore()


def report(result) -> str:
    commodity, npb, vs_moore = result
    moore = moore_factor(6.0)
    rows = [
        [name, loki, ss, loki / ss, (loki / ss) / moore]
        for name, (loki, ss) in commodity.items()
    ]
    c = NBODY_LOKI_VS_SS
    return "\n".join([
        format_table(
            ["commodity", "Loki 1996", "SS 2002", "improvement", "vs Moore (16x)"],
            rows, "Section 5: commodity price scaling",
        ),
        format_table(
            ["NPB class B", "Loki 16p Mflops", "SS 16p Mflops", "ratio", "price/perf vs Moore"],
            [[b, LOKI_NPB_CLASS_B_16P[b], SS_NPB_CLASS_B_16P[b], npb[b], vs_moore[b]]
             for b in npb],
            "Section 5: NPB class B, 16 processors",
        ),
        "",
        f"N-body: Loki {c.loki_gflops} Gflop/s -> SS {c.ss_gflops} Gflop/s "
        f"= {c.performance_ratio:.0f}x measured vs {c.predicted_ratio():.0f}x "
        f"Moore-predicted (price ratio {c.price_ratio:.1f})",
    ])


def check(result) -> None:
    commodity, npb, _ = result
    c = NBODY_LOKI_VS_SS
    assert moore_factor(6.0) == 16.0
    disk_gain = commodity["disk $/GB"][0] / commodity["disk $/GB"][1]
    assert abs(disk_gain / 16.0 - 6.7) < 0.4
    ram_gain = commodity["RAM $/MB"][0] / commodity["RAM $/MB"][1]
    assert abs(ram_gain / 16.0 - 2.0) < 0.1
    assert abs(npb["BT"] - 12.6) < 0.1 and abs(npb["LU"] - 15.5) < 0.1
    assert abs(c.performance_ratio - 140.6) < 1.0
    assert abs(c.predicted_ratio() - 150.0) < 8.0


BENCH = Bench(
    ("section", "hardware"), _build, check, report=report,
    params={"years": 6.0},
    counters=lambda r: {"commodities": len(r[0]), "npb_benches": len(r[1])},
)


if __name__ == "__main__":
    BENCH.cli(__file__, __doc__)
