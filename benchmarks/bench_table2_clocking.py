"""Bench T2 — regenerate Table 2: the clock-sensitivity study.

All fourteen benchmarks under the four BIOS configurations.  The
normal column anchors absolute rates and the slow-mem/slow-CPU columns
calibrate the two-component model; the overclock column is a genuine
prediction, compared cell by cell against the paper.
"""

from repro.analysis import format_table
from repro.machine import OVERCLOCK, TABLE2_CONFIGS, TABLE2_MEASURED, table2_profiles

from _harness import Bench


def _build():
    profiles = table2_profiles()
    rows = []
    for name, profile in profiles.items():
        row = [name] + [profile.rate(cfg) for cfg in TABLE2_CONFIGS]
        row.append(TABLE2_MEASURED[name][3])  # measured overclock
        rows.append(row)
    return rows


def report(rows) -> str:
    return format_table(
        ["benchmark", "normal", "slow mem", "slow CPU", "overclock (model)", "overclock (paper)"],
        rows,
        "Table 2: clock-scaling model vs measurement",
    )


def check(rows) -> None:
    profiles = table2_profiles()
    for name, profile in profiles.items():
        measured = TABLE2_MEASURED[name][3]
        predicted = profile.rate(OVERCLOCK)
        assert abs(predicted / measured - 1.0) < 0.05, name
    # The paper's headline: most benchmarks track memory bandwidth.
    memory_bound = [n for n, p in profiles.items() if p.memory_boundedness > 0.5]
    assert {"copy", "add", "scale", "triad", "SP", "MG", "CG"} <= set(memory_bound)


BENCH = Bench(("table", "hardware"), _build, check, report=report,
              counters=lambda rows: {"rows": len(rows)})


if __name__ == "__main__":
    BENCH.cli(__file__, __doc__)
