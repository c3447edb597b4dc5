"""Bench T3 — regenerate Table 3: 64-processor class C NPB vs ASCI Q.

Also executes the real class-S mini-kernels first (verified answers),
so the rates below stand on exercised arithmetic, then prints the
calibrated model's Table 3.
"""

from repro.analysis import format_table
from repro.nas import (
    Q_MEASURED_C64,
    SS_MEASURED_C64,
    asci_q_npb_model,
    run_bt,
    run_cg,
    run_ft,
    run_is,
    run_lu,
    run_sp,
    space_simulator_npb_model,
)

from _harness import Bench

_KERNELS = {"BT": run_bt, "SP": run_sp, "LU": run_lu, "CG": run_cg, "FT": run_ft, "IS": run_is}


def _build():
    verified = {name: fn("S").verified for name, fn in _KERNELS.items()}
    ss = space_simulator_npb_model()
    q = asci_q_npb_model()
    rows = []
    for bench in SS_MEASURED_C64:
        rows.append([
            bench,
            ss.mops(bench, "C", 64),
            SS_MEASURED_C64[bench],
            q.mops(bench, "C", 64),
            Q_MEASURED_C64[bench],
        ])
    return verified, rows


def report(result) -> str:
    verified, rows = result
    return "\n".join([
        f"kernel self-verification (class S): {verified}",
        format_table(
            ["benchmark", "SS model", "SS paper", "Q model", "Q paper"],
            rows,
            "Table 3: 64-processor class C NPB (Mop/s)",
        ),
    ])


def check(result) -> None:
    verified, rows = result
    assert all(verified.values())
    for bench, ss_model, ss_paper, q_model, q_paper in rows:
        assert abs(ss_model / ss_paper - 1.0) < 1e-6, bench  # calibration column
        assert abs(q_model / q_paper - 1.0) < 1e-6, bench


BENCH = Bench(
    ("table", "npb"), _build, check, report=report,
    params={"klass": "C", "procs": 64},
    counters=lambda r: {"verified": sum(r[0].values()), "rows": len(r[1])},
)


if __name__ == "__main__":
    BENCH.cli(__file__, __doc__)
