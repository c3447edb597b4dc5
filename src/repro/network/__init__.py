"""Gigabit-ethernet network models: stacks, NetPIPE, switch fabric.

The reproduction's stand-in for the 3c996B-T NICs and the Foundry
FastIron 1500+800 fabric (DESIGN.md substitution table).  Calibrated
against the Figure 2 curve features (779 Mbit/s TCP peak, 79-87 us
latencies) and the Section 3.1 backplane measurements (6000 Mbit/s
cross-module, 8 Gbit/s trunk).
"""

from .._namespace import namespace

__all__, __getattr__, __dir__ = namespace(__name__, {
    ".netpipe": ("NetpipePoint", "NetpipeSummary", "message_sizes", "sweep", "summarize"),
    ".stacks": (
        "MessagingStack", "TCP", "LAM", "LAM_O", "MPICH2_092", "MPICH_125", "FIGURE2_STACKS",
    ),
    ".switch": (
        "SwitchSpec", "FabricModel", "Flow", "PortLocation", "FASTIRON_1500", "FASTIRON_800",
        "SPACE_SIMULATOR_FABRIC",
    ),
    ".topology": (
        "hypercube_pairs", "pair_flows", "cross_module_flows", "bisection_flows",
        "effective_pairwise_mbits",
    ),
})
