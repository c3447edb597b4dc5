"""Bench F5 — regenerate Figure 5: NPB class C scaling on the SS.

Class C is smaller, so scaling sags at high processor counts — except
LU, whose per-processor rate *rises* around 64 processors when the
local planes drop into L2 ("likely due to the problem being divided
into enough pieces that it fits into L2 cache"), the figure's
signature feature.
"""

from repro.analysis import format_table
from repro.nas import space_simulator_npb_model

from _harness import Bench

BENCHES = ("BT", "SP", "LU", "CG", "FT", "IS")
# 1..256 regenerate the paper's Figure 5; 512/1024/2560 extrapolate
# past the Space Simulator (see EXPERIMENTS.md, "Scaling past the
# paper").  Paper-anchored assertions stay pinned to the 256 column.
PROCS = (1, 4, 16, 64, 256, 512, 1024, 2560)


def _build():
    ss = space_simulator_npb_model()
    per = {b: [ss.mops_per_proc(b, "C", p) for p in PROCS] for b in BENCHES}
    return per


def report(per) -> str:
    return format_table(
        ["procs"] + list(BENCHES),
        [[p] + [per[b][i] for b in BENCHES] for i, p in enumerate(PROCS)],
        "Figure 5: class C per-processor Mop/s",
    )


def check(per) -> None:
    lu = per["LU"]
    # The LU feature: higher per-proc rate at 64 than at 1.
    assert lu[PROCS.index(64)] > lu[0]
    # And class C scaling is worse than class D at 256 procs.
    ss = space_simulator_npb_model()
    for b in ("BT", "LU"):
        eff_c = per[b][PROCS.index(256)] / per[b][PROCS.index(16)]
        eff_d = ss.mops_per_proc(b, "D", 256) / ss.mops_per_proc(b, "D", 16)
        assert eff_d > eff_c, b


BENCH = Bench(
    ("figure", "npb"), _build, check, report=report,
    params={"benches": list(BENCHES), "procs": list(PROCS)},
    counters=lambda per: {"curves": len(per), "points": sum(len(v) for v in per.values())},
)


if __name__ == "__main__":
    BENCH.cli(__file__, __doc__)
