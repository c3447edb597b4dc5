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

from .abm import ABMChannel
from .backend import (
    KernelBackend,
    NumpyBackend,
    get_backend,
)
from .cellserver import (
    CellRecord,
    CellServer,
    combine_records,
    content_fingerprint,
    cover_interval,
    key_interval,
    shift_quadrupole,
)
from .domain import (
    DomainDecomposition,
    decompose,
    merge_splitter_candidates,
    morton_traversal_order_2d,
    sample_splitters,
    split_weighted,
    splitter_candidates,
)
from .gravity import (
    GravityResult,
    direct_accelerations,
    total_energy,
    tree_accelerations,
)
from .hashtable import KeyHashTable
from .hilbert import (
    axes_to_hilbert,
    hilbert_keys_from_positions,
    hilbert_to_axes,
)
from .integrator import LeapfrogIntegrator, StepStats, nbody_simulate
from .kernels import (
    KernelTiming,
    interaction_kernel,
    measure_kernel_mflops,
    reciprocal_sqrt_karp,
    reciprocal_sqrt_libm,
)
from .keys import (
    KEY_BITS,
    MAX_LEVEL,
    ROOT_KEY,
    BoundingBox,
    ancestor_at_level,
    cell_center_and_size,
    child_keys,
    key_level,
    key_level_2d,
    keys_from_positions,
    keys_from_positions_2d,
    octant_of,
    parent_key,
    positions_from_keys,
)
from .mac import AbsoluteErrorMAC, OpeningAngleMAC
from .outofcore import (
    OutOfCoreParticles,
    OutOfCoreResult,
    out_of_core_accelerations,
)
from .snapshot import Snapshot, SnapshotError, read_snapshot, snapshot_nbytes, write_snapshot
from .parallel import (
    ParallelConfig,
    ParallelGravityResult,
    ParallelRunResult,
    parallel_nbody_run,
    parallel_tree_accelerations,
)
from .traversal import (
    InteractionCounts,
    InteractionLists,
    TraversalResult,
    build_interaction_lists,
    compute_forces,
    compute_forces_reference,
    evaluate_interaction_lists,
)
from .tree import Tree, build_tree

__all__ = [
    "KEY_BITS",
    "MAX_LEVEL",
    "ROOT_KEY",
    "BoundingBox",
    "keys_from_positions",
    "positions_from_keys",
    "keys_from_positions_2d",
    "key_level",
    "key_level_2d",
    "parent_key",
    "child_keys",
    "ancestor_at_level",
    "octant_of",
    "cell_center_and_size",
    "KeyHashTable",
    "Tree",
    "build_tree",
    "OpeningAngleMAC",
    "AbsoluteErrorMAC",
    "InteractionCounts",
    "InteractionLists",
    "TraversalResult",
    "build_interaction_lists",
    "compute_forces",
    "compute_forces_reference",
    "evaluate_interaction_lists",
    "KernelBackend",
    "NumpyBackend",
    "get_backend",
    "GravityResult",
    "direct_accelerations",
    "tree_accelerations",
    "total_energy",
    "reciprocal_sqrt_libm",
    "reciprocal_sqrt_karp",
    "interaction_kernel",
    "KernelTiming",
    "measure_kernel_mflops",
    "split_weighted",
    "decompose",
    "DomainDecomposition",
    "sample_splitters",
    "splitter_candidates",
    "merge_splitter_candidates",
    "morton_traversal_order_2d",
    "LeapfrogIntegrator",
    "StepStats",
    "nbody_simulate",
    "ABMChannel",
    "CellRecord",
    "CellServer",
    "content_fingerprint",
    "cover_interval",
    "key_interval",
    "shift_quadrupole",
    "combine_records",
    "ParallelConfig",
    "ParallelGravityResult",
    "ParallelRunResult",
    "parallel_tree_accelerations",
    "parallel_nbody_run",
    "OutOfCoreParticles",
    "OutOfCoreResult",
    "out_of_core_accelerations",
    "hilbert_keys_from_positions",
    "axes_to_hilbert",
    "hilbert_to_axes",
    "Snapshot",
    "SnapshotError",
    "read_snapshot",
    "snapshot_nbytes",
    "write_snapshot",
]
