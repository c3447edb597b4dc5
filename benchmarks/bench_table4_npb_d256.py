"""Bench T4 — regenerate Table 4: 256-processor class D NPB vs ASCI Q.

Unlike Table 3 (the calibration point), every number here is a
*prediction* of the calibrated models; the assertions check the shape
claims: every prediction within 2x, ASCI Q ahead on every benchmark,
and the paper's performance ordering preserved.
"""

from repro.analysis import format_table
from repro.nas import (
    Q_MEASURED_D256,
    SS_MEASURED_D256,
    asci_q_npb_model,
    space_simulator_npb_model,
)

from _harness import Bench


def _build():
    ss = space_simulator_npb_model()
    q = asci_q_npb_model()
    rows = []
    for bench in SS_MEASURED_D256:
        rows.append([
            bench,
            ss.mops(bench, "D", 256),
            SS_MEASURED_D256[bench],
            ss.mops(bench, "D", 256) / SS_MEASURED_D256[bench],
            q.mops(bench, "D", 256),
            Q_MEASURED_D256[bench],
            q.mops(bench, "D", 256) / Q_MEASURED_D256[bench],
        ])
    return rows


def report(rows) -> str:
    return format_table(
        ["benchmark", "SS model", "SS paper", "SS ratio", "Q model", "Q paper", "Q ratio"],
        rows,
        "Table 4: 256-processor class D NPB (Mop/s) — pure prediction",
    )


def check(rows) -> None:
    for bench, ss_m, ss_p, ss_r, q_m, q_p, q_r in rows:
        assert 0.5 < ss_r < 2.0, bench
        assert 0.5 < q_r < 2.0, bench
        assert q_m > ss_m, bench  # Q wins every class D row, as in the paper
    ss_rank = sorted((r[0] for r in rows), key=lambda b: -dict((x[0], x[1]) for x in rows)[b])
    assert ss_rank == ["LU", "BT", "SP", "FT", "CG"]


BENCH = Bench(("table", "npb"), _build, check, report=report,
              params={"klass": "D", "procs": 256}, counters=lambda rows: {"rows": len(rows)})


if __name__ == "__main__":
    BENCH.cli(__file__, __doc__)
