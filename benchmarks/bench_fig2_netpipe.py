"""Bench F2 — regenerate Figure 2: NetPIPE curves for five stacks.

Prints the bandwidth-versus-message-size series and the caption's
headline numbers: TCP peaks at 779 Mbit/s; latencies are 79 us (TCP),
83 us (LAM), 87 us (mpich/mpich2); mpich-1.2.5 lags at large messages;
LAM -O beats plain LAM; mpich2-0.92 fixes the mpich large-message
problem.
"""

import numpy as np

from repro.analysis import format_table
from repro.network import FIGURE2_STACKS, summarize, sweep

from _harness import Bench


def _build():
    sizes = np.array([2**i for i in range(0, 25, 2)])
    series = {s.name: [p.mbits_s for p in sweep(s, sizes)] for s in FIGURE2_STACKS}
    summaries = [summarize(s) for s in FIGURE2_STACKS]
    return sizes, series, summaries


def report(result) -> str:
    sizes, series, summaries = result
    headers = ["bytes"] + list(series)
    rows = [[int(n)] + [series[name][i] for name in series] for i, n in enumerate(sizes)]
    return "\n\n".join([
        format_table(headers, rows, "Figure 2: bandwidth (Mbit/s) vs message size"),
        format_table(
            ["stack", "latency us", "peak Mbit/s", "n1/2 bytes"],
            [[s.stack, s.latency_us, s.peak_mbits_s, s.half_bandwidth_bytes] for s in summaries],
        ),
    ])


def check(result) -> None:
    _, series, summaries = result
    by_name = {s.stack: s for s in summaries}
    assert abs(by_name["TCP"].peak_mbits_s - 779.0) < 8.0
    assert abs(by_name["TCP"].latency_us - 79.0) < 1.0
    assert abs(by_name["LAM 6.5.9"].latency_us - 83.0) < 1.0
    assert abs(by_name["mpich 1.2.5"].latency_us - 87.0) < 1.0
    big = series["mpich 1.2.5"][-1]
    assert all(series[name][-1] > big for name in series if name != "mpich 1.2.5")


BENCH = Bench(
    ("figure", "network"), _build, check, report=report,
    params={"stacks": [s.name for s in FIGURE2_STACKS], "n_sizes": 13},
    counters=lambda r: {
        "series": len(r[1]),
        "peak_mbits_s": max(max(v) for v in r[1].values()),
    },
)


if __name__ == "__main__":
    BENCH.cli(__file__, __doc__)
