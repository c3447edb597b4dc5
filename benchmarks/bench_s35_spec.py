"""Bench S35 — regenerate the Section 3.5 SPEC CPU2000 results.

The modeled marks (790 int / 742 fp, with the Table 2 clock-scaling
columns) and the price/performance arithmetic: $1.20 per SPECfp at the
$888 node price, the HP rx2600 breakeven near $2500, and the July-2003
sub-$1.00 update.
"""

from repro.analysis import format_table
from repro.machine import TABLE2_CONFIGS
from repro.spec import (
    HP_RX2600_SPECFP,
    NODE_COST_NO_NETWORK,
    breakeven_price_vs,
    price_per_specfp,
    spec_scores,
)

from _harness import Bench


def _build():
    table = {cfg.name: spec_scores(cfg) for cfg in TABLE2_CONFIGS}
    return table


def report(table) -> str:
    return "\n".join([
        format_table(
            ["config", "CINT2000", "CFP2000"],
            [[name, scores["CINT2000"], scores["CFP2000"]] for name, scores in table.items()],
            "SPEC CPU2000 model under the Table 2 clock configurations",
        ),
        f"$/SPECfp at ${NODE_COST_NO_NETWORK:.0f}/node: {price_per_specfp():.2f} (paper: $1.20)",
        f"HP rx2600 ({HP_RX2600_SPECFP:.0f} SPECfp) breakeven price: "
        f"${breakeven_price_vs():.0f} (paper: < $2500)",
        f"July 2003 ($200 cheaper node): ${price_per_specfp(688.0):.2f}/SPECfp "
        f"(paper: 'better than $1.00')",
    ])


def check(table) -> None:
    assert round(table["normal"]["CINT2000"]) == 790
    assert round(table["normal"]["CFP2000"]) == 742
    assert abs(price_per_specfp() - 1.20) < 0.01
    assert price_per_specfp(688.0) < 1.00


BENCH = Bench(("section", "hardware"), _build, check, report=report,
              counters=lambda table: {"configs": len(table)})


if __name__ == "__main__":
    BENCH.cli(__file__, __doc__)
