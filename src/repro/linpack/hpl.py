"""High-Performance-Linpack-style solver: blocked LU with pivoting.

The real numerical core behind the Figure 3 / Table 2 Linpack numbers:
a right-looking, blocked LU factorization with partial pivoting, a
triangular solve, and HPL's scaled residual check.  At laptop scale the
kernel verifies the arithmetic is genuinely Linpack; the cluster-scale
Gflop/s numbers come from :mod:`repro.linpack.model`, which consumes
this kernel's operation count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..obs import wallclock

__all__ = ["HplResult", "lu_factor_blocked", "lu_solve", "hpl_flops", "run_hpl"]


def hpl_flops(n: int) -> float:
    """The official HPL operation count: 2/3 n^3 + 2 n^2."""
    return (2.0 / 3.0) * n**3 + 2.0 * n**2


def lu_factor_blocked(a: np.ndarray, block: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """In-place blocked LU with partial pivoting; returns (LU, piv).

    Right-looking algorithm: factor a panel (unblocked, with row
    swaps), apply the pivots across the trailing matrix, triangular-
    solve the block row, then rank-``block`` update the trailing
    submatrix with DGEMM — the structure that lets ATLAS's matmul carry
    the flops, which is why Linpack sits at the CPU-bound corner of
    Table 2.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError("matrix must be square")
    if block < 1:
        raise ValueError("block must be >= 1")
    piv = np.arange(n)
    for k in range(0, n, block):
        kb = min(block, n - k)
        # Unblocked panel factorization with partial pivoting.
        for j in range(k, k + kb):
            p = j + int(np.argmax(np.abs(a[j:, j])))
            if a[p, j] == 0.0:
                raise np.linalg.LinAlgError("matrix is singular")
            if p != j:
                a[[j, p], :] = a[[p, j], :]
                piv[[j, p]] = piv[[p, j]]
            a[j + 1 :, j] /= a[j, j]
            if j + 1 < k + kb:
                a[j + 1 :, j + 1 : k + kb] -= np.outer(a[j + 1 :, j], a[j, j + 1 : k + kb])
        if k + kb < n:
            # Block row: solve L11 @ U12 = A12.
            l11 = np.tril(a[k : k + kb, k : k + kb], -1) + np.eye(kb)
            a[k : k + kb, k + kb :] = np.linalg.solve(l11, a[k : k + kb, k + kb :])
            # Trailing update (the DGEMM).
            a[k + kb :, k + kb :] -= a[k + kb :, k : k + kb] @ a[k : k + kb, k + kb :]
    return a, piv


def lu_solve(lu: np.ndarray, piv: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` from the factored form."""
    n = lu.shape[0]
    x = b[piv].astype(np.float64).copy()
    for i in range(1, n):  # forward substitution (unit lower)
        x[i] -= lu[i, :i] @ x[:i]
    for i in range(n - 1, -1, -1):  # back substitution
        x[i] = (x[i] - lu[i, i + 1 :] @ x[i + 1 :]) / lu[i, i]
    return x


@dataclass(frozen=True)
class HplResult:
    """Outcome of one HPL run at laptop scale."""

    n: int
    seconds: float
    gflops: float
    residual: float
    passed: bool


def run_hpl(n: int = 512, block: int = 64, seed: int = 42) -> HplResult:
    """One HPL-style run: factor, solve, and check the scaled residual.

    The pass criterion is HPL's: ``||Ax-b||_inf / (eps ||A||_1 ||x||_1 n)``
    below 16.  Under :func:`repro.obs.wallclock.profile`, the factor
    and solve phases are nested wall-clock spans under ``hpl.run``, and
    the HPL operation count lands in the ``hpl.flops`` counter.
    """
    rng = np.random.default_rng(seed)
    a0 = rng.random((n, n)) - 0.5
    b = rng.random(n) - 0.5
    with wallclock.span("hpl.run", cat="bench", n=n, block=block):
        t0 = time.perf_counter()
        with wallclock.span("hpl.factor", cat="bench"):
            lu, piv = lu_factor_blocked(a0.copy(), block)
        with wallclock.span("hpl.solve", cat="bench"):
            x = lu_solve(lu, piv, b)
        dt = time.perf_counter() - t0
    wallclock.count("hpl.flops", hpl_flops(n))
    resid = np.abs(a0 @ x - b).max()
    scaled = resid / (np.finfo(np.float64).eps * np.abs(a0).sum(axis=1).max() * np.abs(x).sum() * n)
    return HplResult(n, dt, hpl_flops(n) / dt / 1e9, scaled, bool(scaled < 16.0))
