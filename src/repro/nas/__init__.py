"""NAS Parallel Benchmarks: real mini-kernels + calibrated perf model.

Eight benchmarks (BT, SP, LU, MG, CG, FT, IS, EP) with genuinely
executing, verifying mini-kernels at laptop classes, NPB-standard class
definitions with operation accounting, and the parallel performance
model that regenerates Tables 3-4 and the scaling Figures 4-5.
"""

from .._namespace import namespace

__all__, __getattr__, __dir__ = namespace(__name__, {
    ".bt": ("run_bt", "AdiResult", "adi_step_tridiagonal"),
    ".cg": ("run_cg", "CgResult", "cg_solve", "make_matrix"),
    ".classes": ("BENCHMARKS", "CLASSES", "NpbProblem", "problem", "total_ops"),
    ".ep": ("run_ep", "EpResult"),
    ".ft": ("run_ft", "FtResult"),
    ".harness": ("NpbReport", "run_benchmark", "run_suite", "RUNNERS"),
    ".is_": ("run_is", "IsResult", "rank_keys"),
    ".lu": ("run_lu", "LuResult", "ssor_solve"),
    ".mg": ("run_mg", "MgResult", "v_cycle"),
    ".perf": (
        "NetworkParams", "NpbPerfModel", "space_simulator_npb_model", "asci_q_npb_model",
        "SS_NETWORK", "Q_NETWORK", "SS_SERIAL_MOPS", "SS_MEASURED_C64", "Q_MEASURED_C64",
        "SS_MEASURED_D256", "Q_MEASURED_D256",
    ),
    ".sp": ("run_sp", "adi_step_pentadiagonal"),
})
