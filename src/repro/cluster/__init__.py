"""The cluster itself: procurement, power, reliability, and economics.

Models everything Section 2 and Section 5 of the paper report about
the physical machine: the Table 1/Table 7 bills of materials, the 35 kW
power budget, nine months of component-failure statistics, the TOP500
ranking context, and the Moore's-law price/performance analysis.
"""

from .._namespace import namespace

__all__, __getattr__, __dir__ = namespace(__name__, {
    ".bom": ("LineItem", "BillOfMaterials", "SPACE_SIMULATOR_BOM", "LOKI_BOM"),
    ".checkpoint": ("CheckpointPlan", "job_mtbf_hours", "young_interval", "expected_runtime"),
    ".moore": (
        "moore_factor", "disk_dollars_per_gb", "ram_dollars_per_mb", "npb_improvement_ratios",
        "npb_price_performance_vs_moore", "NBodyComparison", "NBODY_LOKI_VS_SS",
        "LOKI_NPB_CLASS_B_16P", "SS_NPB_CLASS_B_16P", "YEARS_LOKI_TO_SS",
    ),
    ".power": ("PowerBudget", "SPACE_SIMULATOR_POWER"),
    ".reliability": (
        "ComponentPopulation", "FailureModel", "SimulatedLife", "SS_COMPONENTS", "INSTALL_DEFECTS",
        "SERVICE_FAILURES_9MO",
    ),
    ".top500": (
        "Top500Anchor", "TOP500_NOV2002", "TOP500_JUN2003", "estimate_rank",
        "price_per_mflops_cents", "SS_LINPACK_NOV2002", "SS_LINPACK_APR2003",
    ),
})
