"""Smoothed particle hydrodynamics on the tree (Section 4.4, Figure 8).

The supernova half of the paper: SPH kernels, tree-based neighbor
search, density with adaptive smoothing, momentum/energy equations with
artificial viscosity, the stiffening nuclear EOS, gray flux-limited-
diffusion neutrino transport, and the rotating core-collapse setup and
driver that reproduce the Figure 8 angular-momentum diagnostic.
"""

from .._namespace import namespace

__all__, __getattr__, __dir__ = namespace(__name__, {
    ".collapse": (
        "lane_emden", "polytrope_particles", "add_rotation", "angular_momentum_by_angle",
        "cone_vs_equator_angular_momentum", "CollapseConfig", "CollapseHistory",
        "CollapseSimulation",
    ),
    ".density": ("DensityResult", "density_sum", "adapt_smoothing", "initial_smoothing"),
    ".eos": ("IdealGas", "Polytrope", "HybridCollapseEOS"),
    ".forces": ("ViscosityParams", "SphForces", "compute_sph_forces"),
    ".kernel": ("SUPPORT_RADIUS", "w_cubic", "dw_dr_cubic", "kernel_self_value"),
    ".neighbors": ("NeighborLists", "find_neighbors", "find_neighbors_reference"),
    ".hydro": ("HydroSimulation", "sod_tube_particles"),
    ".neutrino": ("FldParams", "NeutrinoStep", "flux_limiter", "neutrino_step"),
    ".riemann": ("RiemannState", "SOD_LEFT", "SOD_RIGHT", "solve_star", "sample", "sod_solution"),
})
