"""Galactic dynamics: dissipationless halo collapse (Section 4.1, ref [18])."""

from .._namespace import namespace

__all__, __getattr__, __dir__ = namespace(__name__, {
    ".halo": (
        "cold_collapse_ics", "virial_ratio", "density_profile", "axis_ratios", "spin_alignment",
        "half_mass_radius",
    ),
})
