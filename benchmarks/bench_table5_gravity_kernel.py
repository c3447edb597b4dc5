"""Bench T5 — regenerate Table 5: the gravity micro-kernel survey.

Three parts: (1) run both kernel variants for real on this host (libm
sqrt versus Karp's add/multiply-only reciprocal square root), verify
they agree numerically, and report this machine's Mflop/s under the
paper's 38-flop accounting; (2) print the paper's eleven-processor
survey with the derived micro-architecture interpretation (effective
flops/cycle, implied sqrt+divide latency); (3) check the survey's
qualitative claims — Karp wins big exactly where hardware sqrt is slow.
The batched-vs-walker study, host-timed, is the slow test
``test_table5_batched_beats_the_walker`` (N=2 000, ~2 s).
"""

import numpy as np

from repro.analysis import format_table
from repro.core import interaction_kernel, measure_kernel_mflops
from repro.machine import TABLE5_PROCESSORS

from _harness import Bench


def _build():
    rng = np.random.default_rng(0)
    sources = rng.standard_normal((2048, 3))
    masses = rng.random(2048)
    a1, p1 = interaction_kernel(np.zeros(3), sources, masses, eps=0.01, method="libm")
    a2, p2 = interaction_kernel(np.zeros(3), sources, masses, eps=0.01, method="karp")
    agreement = float(np.abs(a1 - a2).max() / np.abs(a1).max())
    host = {m: measure_kernel_mflops(m, n_sources=2048, repeats=10) for m in ("libm", "karp")}
    return agreement, host


def report(result) -> str:
    agreement, host = result
    rows = [
        [p.name, p.measured_libm_mflops, p.measured_karp_mflops,
         p.karp_speedup, p.effective_flops_per_cycle, p.implied_sqrtdiv_cycles]
        for p in TABLE5_PROCESSORS
    ]
    rows.append(["THIS HOST (numpy)", host["libm"].mflops, host["karp"].mflops,
                 host["karp"].mflops / host["libm"].mflops, "", ""])
    return "\n".join([
        format_table(
            ["processor", "libm", "Karp", "Karp/libm", "eff flops/cyc", "sqrt+div cyc"],
            rows,
            "Table 5: gravitational micro-kernel Mflop/s (paper survey + this host)",
        ),
        f"libm/Karp numerical agreement: {agreement:.2e} relative",
    ])


def check(result) -> None:
    agreement, host = result
    assert agreement < 1e-10
    assert host["libm"].mflops > 0 and host["karp"].mflops > 0
    # Qualitative claims of the survey:
    by_name = {p.name: p for p in TABLE5_PROCESSORS}
    assert by_name["533-MHz Alpha EV56"].karp_speedup > 3.0
    assert by_name["2530-MHz Intel P4 (icc)"].measured_libm_mflops > 1.4 * by_name[
        "2530-MHz Intel P4"].measured_libm_mflops


BENCH = Bench(
    ("table", "kernel"), _build, check, report=report,
    params={"n_sources": 2048, "repeats": 10},
    counters=lambda r: {
        "agreement": r[0],
        "libm_mflops": r[1]["libm"].mflops,
        "karp_mflops": r[1]["karp"].mflops,
    },
)


if __name__ == "__main__":
    BENCH.cli(__file__, __doc__)
