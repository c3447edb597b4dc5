"""Vortex particle method on the hashed oct-tree (Section 4.1).

One of the paper's "generic design" payoffs: the same tree, MAC, and
interaction-list machinery as gravity, evaluating regularized
Biot-Savart induction for vortex particles (the method of the paper's
reference [9], Ploumans, Winckelmans, Salmon, Leonard & Warren 2002).
"""

from .._namespace import namespace

__all__, __getattr__, __dir__ = namespace(__name__, {
    ".biot_savart": ("VortexSystem", "direct_velocities", "tree_velocities", "wl_kernel"),
    ".ring": ("vortex_ring", "ring_speed_kelvin", "ring_centroid", "ring_radius"),
})
