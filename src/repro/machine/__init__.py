"""Node hardware models: clocks, memory, roofline timing, catalogs.

This subpackage is the reproduction's stand-in for the physical Shuttle
XPC node (see DESIGN.md, substitution table).  It provides:

* :class:`~repro.machine.node.NodeSpec` — parametric node description
  (CPU/memory clocks, bandwidths, disk, NIC) with BIOS-style independent
  clock scaling.
* :mod:`~repro.machine.clocking` — the four Table 2 clock configurations
  and the two-component CPU/memory sensitivity model.
* :class:`~repro.machine.perfmodel.PerfModel` — roofline execution-time
  model used by every higher-level performance model.
* :mod:`~repro.machine.specs` — Table 5 processor survey and Table 6
  historical machine catalog.
"""

from .._namespace import namespace

__all__, __getattr__, __dir__ = namespace(__name__, {
    ".clocking": (
        "ClockConfig", "WorkloadProfile", "fit_workload", "table2_profiles", "NORMAL", "SLOW_MEM",
        "SLOW_CPU", "OVERCLOCK", "TABLE2_CONFIGS", "TABLE2_MEASURED",
    ),
    ".node": ("NodeSpec", "DiskSpec", "NicSpec", "SPACE_SIMULATOR_NODE", "LOKI_NODE"),
    ".perfmodel": ("PerfModel", "Workload"),
    ".specs": (
        "ProcessorSpec", "MachineRecord", "TABLE5_PROCESSORS", "TABLE6_MACHINES", "ASCI_Q_NODE",
        "FLOPS_PER_INTERACTION",
    ),
})
