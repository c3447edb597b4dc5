"""Boundary integral methods on the tree (Section 4.1).

Exterior Laplace solver via a single-layer potential with
tree-accelerated matrix-free matvecs — the fourth of the paper's
"generic design" application modules (N-body, SPH, vortex particles,
boundary integrals).
"""

from .._namespace import namespace

__all__, __getattr__, __dir__ = namespace(__name__, {
    ".laplace": (
        "PanelSurface", "sphere_panels", "single_layer_matvec", "solve_dirichlet",
        "exterior_potential",
    ),
})
