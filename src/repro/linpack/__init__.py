"""Linpack: real blocked LU kernel + cluster HPL model (Fig 3, Table 2)."""

from .._namespace import namespace

__all__, __getattr__, __dir__ = namespace(__name__, {
    ".hpl": ("HplResult", "hpl_flops", "lu_factor_blocked", "lu_solve", "run_hpl"),
    ".model": (
        "ClusterHplModel", "calibrated_space_simulator_model", "predicted_mpich_gflops",
        "SS_NODE_LINPACK_GFLOPS", "PAPER_LAM_GFLOPS", "PAPER_MPICH_GFLOPS",
    ),
})
