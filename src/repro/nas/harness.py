"""Timed execution harness for the NPB mini-kernels.

Runs a benchmark class for real, times it, and reports measured Mop/s
with the NPB operation accounting — the same "class X, N iterations,
Mop/s total, verification successful" report the Fortran originals
print.  This grounds the modeled Tables 3-4 rates in executed
arithmetic on whatever host runs the reproduction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from ..obs import wallclock
from .bt import run_bt
from .cg import run_cg
from .classes import problem, total_ops
from .ep import run_ep
from .ft import run_ft
from .is_ import run_is
from .lu import run_lu
from .mg import run_mg
from .sp import run_sp

__all__ = ["NpbReport", "run_benchmark", "run_suite", "RUNNERS", "REDUCED_FIDELITY"]

RUNNERS: dict[str, Callable] = {
    "BT": run_bt,
    "SP": run_sp,
    "LU": run_lu,
    "MG": run_mg,
    "CG": run_cg,
    "FT": run_ft,
    "IS": run_is,
    "EP": run_ep,
}


#: Benchmarks whose mini-kernels are scalar reductions of the 5x5-block
#: originals: their NPB-convention op counts (used for Mop/s) charge the
#: full original arithmetic, so host Mop/s overstates executed flops.
REDUCED_FIDELITY = frozenset({"BT", "SP", "LU"})


@dataclass(frozen=True)
class NpbReport:
    """One timed benchmark execution."""

    benchmark: str
    klass: str
    seconds: float
    ops: float
    verified: bool

    @property
    def reduced_fidelity(self) -> bool:
        return self.benchmark in REDUCED_FIDELITY

    @property
    def mops(self) -> float:
        """Measured Mop/s on this host (NPB accounting)."""
        if self.seconds <= 0:
            return 0.0
        return self.ops / self.seconds / 1e6

    def summary(self) -> str:
        prob = problem(self.benchmark, self.klass)
        status = "SUCCESSFUL" if self.verified else "FAILED"
        note = " [reduced-fidelity kernel]" if self.reduced_fidelity else ""
        return (
            f"{self.benchmark} class {self.klass}: size {prob.size}, "
            f"{prob.niter} iterations, {self.seconds:.3f} s, "
            f"{self.mops:.1f} Mop/s (NPB accounting), verification {status}{note}"
        )


def run_benchmark(benchmark: str, klass: str = "S") -> NpbReport:
    """Execute one mini-kernel and time it.

    Under :func:`repro.obs.wallclock.profile`, the execution is a
    wall-clock span (``npb.<BENCH>.<CLASS>``, cat ``bench``) plus
    ``npb.ops`` / ``npb.verified`` counters, comparable across the
    whole suite.
    """
    benchmark = benchmark.upper()
    if benchmark not in RUNNERS:
        raise ValueError(f"unknown benchmark {benchmark!r}; choose from {sorted(RUNNERS)}")
    prob = problem(benchmark, klass)  # validates the class too
    with wallclock.span(f"npb.{benchmark}.{klass}", cat="bench"):
        t0 = time.perf_counter()
        result = RUNNERS[benchmark](klass)
        dt = time.perf_counter() - t0
    # The ADI kernels truncate iterations at big classes (the decay
    # check is per-step); charge only the steps actually executed.
    ops = total_ops(prob)
    steps_run = getattr(result, "steps_run", 0)
    if steps_run and steps_run != prob.niter:
        ops *= steps_run / prob.niter
    wallclock.count("npb.ops", ops)
    wallclock.count("npb.verified", int(bool(result.verified)))
    return NpbReport(benchmark, klass, dt, ops, bool(result.verified))


def run_suite(klass: str = "S", benchmarks: tuple[str, ...] | None = None) -> list[NpbReport]:
    """Run several benchmarks at one class; returns their reports."""
    names = tuple(RUNNERS) if benchmarks is None else tuple(b.upper() for b in benchmarks)
    return [run_benchmark(b, klass) for b in names]
