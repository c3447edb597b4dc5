"""The Hashed Oct-Tree (HOT) N-body library — the paper's flagship code.

Public surface:

* key arithmetic (:mod:`~repro.core.keys`) — Morton keys with the
  Warren–Salmon placeholder-bit convention;
* :class:`~repro.core.hashtable.KeyHashTable` — the key -> cell map that
  names the method: a dict behind a batch interface;
* :func:`~repro.core.tree.build_tree` /
  :func:`~repro.core.gravity.tree_accelerations` — serial treecode: the
  one-rank case of the hashed cell table
  (:attr:`~repro.core.tree.Tree.table`), walked by the same
  :func:`~repro.core.traversal.walk` as the parallel code and the SPH
  neighbour search;
* :func:`~repro.core.gravity.direct_accelerations` — O(N^2) reference;
* kernel backends (:mod:`~repro.core.backend`) — the batched hot loops
  (``numpy``; plain arithmetic, run on threads by the traversal);
* MACs (:mod:`~repro.core.mac`), micro-kernels
  (:mod:`~repro.core.kernels`, the Table 5 benchmark), domain
  decomposition (:mod:`~repro.core.domain`, Figure 6), leapfrog
  integration (:mod:`~repro.core.integrator`);
* the SimMPI parallel treecode with asynchronous batched messages
  (:mod:`~repro.core.abm`, :mod:`~repro.core.parallel`, Table 6).
"""

from .._namespace import namespace

__all__, __getattr__, __dir__ = namespace(__name__, {
    ".abm": ("ABMChannel",),
    ".backend": ("KernelBackend", "NumpyBackend", "get_backend"),
    ".cellserver": (
        "CellRecord", "CellServer", "content_fingerprint", "cover_interval", "key_interval",
        "shift_quadrupole", "combine_records",
    ),
    ".domain": (
        "split_weighted", "decompose", "DomainDecomposition", "sample_splitters",
        "splitter_candidates", "merge_splitter_candidates", "morton_traversal_order_2d",
    ),
    ".gravity": ("GravityResult", "direct_accelerations", "tree_accelerations", "total_energy"),
    ".hashtable": ("KeyHashTable",),
    ".hilbert": ("hilbert_keys_from_positions", "axes_to_hilbert", "hilbert_to_axes"),
    ".integrator": ("LeapfrogIntegrator", "StepStats", "nbody_simulate"),
    ".kernels": (
        "reciprocal_sqrt_libm", "reciprocal_sqrt_karp", "interaction_kernel", "KernelTiming",
        "measure_kernel_mflops",
    ),
    ".keys": (
        "KEY_BITS", "MAX_LEVEL", "ROOT_KEY", "BoundingBox", "keys_from_positions",
        "positions_from_keys", "keys_from_positions_2d", "key_level", "key_level_2d", "parent_key",
        "child_keys", "ancestor_at_level", "octant_of", "cell_center_and_size",
    ),
    ".mac": ("OpeningAngleMAC", "AbsoluteErrorMAC"),
    ".outofcore": ("OutOfCoreParticles", "OutOfCoreResult", "out_of_core_accelerations"),
    ".snapshot": (
        "Snapshot", "SnapshotError", "read_snapshot", "snapshot_nbytes", "write_snapshot",
    ),
    ".parallel": (
        "ParallelConfig", "ParallelGravityResult", "ParallelRunResult",
        "parallel_tree_accelerations", "parallel_nbody_run",
    ),
    ".traversal": (
        "InteractionCounts", "InteractionLists", "TraversalResult", "build_interaction_lists",
        "compute_forces", "compute_forces_reference", "evaluate_interaction_lists",
    ),
    ".tree": ("Tree", "build_tree"),
})
