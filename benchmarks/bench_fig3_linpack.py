"""Bench F3 — regenerate Figure 3: cluster Linpack and the TOP500 story.

Runs the real HPL kernel at laptop scale (residual-checked), then the
calibrated cluster model: LAM 757.1 Gflop/s (calibration), the MPICH
prediction against the measured 665.1, the TOP500 rank placements, and
the 63.9 cents/Mflop/s price/performance milestone.
"""

from repro.cluster import (
    SS_LINPACK_APR2003,
    SS_LINPACK_NOV2002,
    TOP500_JUN2003,
    TOP500_NOV2002,
    estimate_rank,
    price_per_mflops_cents,
)
from repro.linpack import (
    calibrated_space_simulator_model,
    predicted_mpich_gflops,
    run_hpl,
)

from _harness import Bench


def _build():
    kernel = run_hpl(n=384, block=64)
    model = calibrated_space_simulator_model()
    lam = model.gflops()
    mpich = predicted_mpich_gflops()
    return kernel, model, lam, mpich


def report(result) -> str:
    kernel, model, lam, mpich = result
    return "\n".join([
        f"real HPL kernel: n={kernel.n} residual={kernel.residual:.2e} "
        f"passed={kernel.passed} ({kernel.gflops:.2f} Gflop/s on this host)",
        f"cluster N* = {model.problem_size():,}",
        f"LAM 6.5.9 + ATLAS 3.5 : {lam:7.1f} Gflop/s (paper: {SS_LINPACK_APR2003})",
        f"MPICH 1.2.x predicted : {mpich:7.1f} Gflop/s (paper: {SS_LINPACK_NOV2002})",
        f"rank on 20th TOP500 at 665.1: #{estimate_rank(665.1, TOP500_NOV2002)} (paper: #85)",
        f"rank on 21st TOP500 at 757.1: #{estimate_rank(757.1, TOP500_JUN2003)} (paper: #88)",
        f"757.1 would rank on 20th list: #{estimate_rank(757.1, TOP500_NOV2002)} (paper: #69)",
        f"price/performance: {price_per_mflops_cents():.1f} cents/Mflop/s (paper: 63.9)",
    ])


def check(result) -> None:
    kernel, _, lam, mpich = result
    assert kernel.passed
    assert abs(lam - SS_LINPACK_APR2003) < 0.1
    assert abs(mpich / SS_LINPACK_NOV2002 - 1.0) < 0.10
    assert price_per_mflops_cents() < 100.0


BENCH = Bench(
    ("figure", "linpack"), _build, check, report=report,
    params={"n": 384, "block": 64},
    counters=lambda r: {
        "kernel_gflops": r[0].gflops,
        "kernel_residual": r[0].residual,
        "model_gflops": r[2],
        "mpich_gflops": r[3],
    },
)


if __name__ == "__main__":
    BENCH.cli(__file__, __doc__)
