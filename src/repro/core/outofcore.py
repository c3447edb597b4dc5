"""Out-of-core treecode force evaluation (Section 4.3, reference [10]).

*"Even larger simulations are possible using the out-of-core version
of our code"* — Salmon & Warren's out-of-core method keeps the particle
data on disk and the (much smaller) cell data in memory.  This module
reproduces the streamed half of that decomposition:

* particle positions and masses live in **memory-mapped files**;
* the bounding box and the Morton keys are computed ``chunk`` rows at a
  time, and the particles are rewritten to disk in Morton order a chunk
  at a time (every leaf is then a contiguous on-disk run — the same
  locality argument as the parallel code's);
* the tree is built over the rewritten files, walked once by the one
  batched walk (:func:`~repro.core.traversal.build_interaction_lists`)
  and evaluated by the one evaluator
  (:func:`~repro.core.traversal.evaluate_interaction_lists`).

What is resident: the tree holds every sorted position and mass in
RAM, as the in-core code does, so the process keeps O(N) particles;
only the passes above stream.  ``peak_resident_particles`` counts what
one chunk's evaluation reads — the chunk's sink rows plus the largest
direct-source list of a group in it — the particle working set of an
evaluator that paged its sources from disk.  The forces are
bit-identical to :func:`~repro.core.gravity.tree_accelerations` with
the same ``theta``, ``eps`` and ``bucket_size``.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .keys import BoundingBox, keys_from_positions
from .mac import OpeningAngleMAC
from .traversal import InteractionCounts, build_interaction_lists, evaluate_interaction_lists
from .tree import build_tree

__all__ = ["OutOfCoreParticles", "OutOfCoreResult", "out_of_core_accelerations"]


@dataclass
class OutOfCoreParticles:
    """Particle store backed by .npy memory maps."""

    positions: np.memmap
    masses: np.memmap
    directory: str
    #: :meth:`create` made ``directory`` itself, so :meth:`cleanup` removes it.
    _owned: bool = field(default=False, init=False, repr=False)

    @classmethod
    def create(
        cls, positions: np.ndarray, masses: np.ndarray, directory: str | None = None
    ) -> "OutOfCoreParticles":
        """Write arrays to disk and reopen them as memory maps."""
        positions = np.ascontiguousarray(positions, dtype=np.float64)
        masses = np.ascontiguousarray(masses, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValueError("positions must be (N, 3)")
        if masses.shape != (positions.shape[0],):
            raise ValueError("masses must be (N,)")
        owned = directory is None
        directory = directory or tempfile.mkdtemp(prefix="hot_ooc_")
        os.makedirs(directory, exist_ok=True)
        pos_path = os.path.join(directory, "positions.npy")
        mass_path = os.path.join(directory, "masses.npy")
        np.save(pos_path, positions)
        np.save(mass_path, masses)
        store = cls(
            positions=np.load(pos_path, mmap_mode="r+"),
            masses=np.load(mass_path, mmap_mode="r+"),
            directory=directory,
        )
        store._owned = owned
        return store

    @property
    def n_particles(self) -> int:
        return self.positions.shape[0]

    def cleanup(self) -> None:
        """Delete the backing files, and the directory if :meth:`create`
        made it."""
        for name in ("positions.npy", "masses.npy"):
            path = os.path.join(self.directory, name)
            if os.path.exists(path):
                os.remove(path)
        if self._owned:
            shutil.rmtree(self.directory, ignore_errors=True)


@dataclass
class OutOfCoreResult:
    """Accelerations/potentials (original order) plus residency stats."""

    accelerations: np.ndarray
    potentials: np.ndarray
    counts: InteractionCounts
    peak_resident_particles: int
    chunks_processed: int


def _chunked_keys(store: OutOfCoreParticles, box: BoundingBox, chunk: int) -> np.ndarray:
    """Morton keys for all particles, touching ``chunk`` rows at a time."""
    n = store.n_particles
    keys = np.empty(n, dtype=np.uint64)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        keys[lo:hi] = keys_from_positions(np.asarray(store.positions[lo:hi]), box)
    return keys


def out_of_core_accelerations(
    store: OutOfCoreParticles,
    *,
    theta: float = 0.6,
    eps: float = 0.0,
    G: float = 1.0,
    bucket_size: int = 32,
    chunk: int = 4096,
) -> OutOfCoreResult:
    """Treecode forces over a disk-backed store.

    The bounding box, the keys and the Morton rewrite stream ``chunk``
    rows at a time; the tree over the rewritten files is walked and
    evaluated once.  ``chunk`` also sets the sink chunks that
    ``peak_resident_particles`` and ``chunks_processed`` count.
    """
    if chunk < bucket_size:
        raise ValueError("chunk must be at least the bucket size")
    n = store.n_particles
    if n == 0:
        raise ValueError("empty particle store")

    # Pass 1 (streamed): global bounding box, padded as the in-core
    # code pads it.
    lo = np.full(3, np.inf)
    hi = np.full(3, -np.inf)
    for start in range(0, n, chunk):
        block = np.asarray(store.positions[start : start + chunk])
        lo = np.minimum(lo, block.min(axis=0))
        hi = np.maximum(hi, block.max(axis=0))
    box = BoundingBox.from_points(np.array([lo, hi]))

    # Pass 2 (streamed): keys; sort permutation kept in RAM (8 bytes/p,
    # the one array the original method also keeps in memory).
    order = np.argsort(_chunked_keys(store, box, chunk), kind="stable")

    # Rewrite the particles to disk in Morton order, chunk by chunk,
    # and build the tree over the rewritten files (already sorted, so
    # the tree's own order is the identity).
    directory = tempfile.mkdtemp(prefix="hot_ooc_sorted_")
    try:
        pos_mm = np.lib.format.open_memmap(
            os.path.join(directory, "positions.npy"), mode="w+", dtype=np.float64, shape=(n, 3))
        mass_mm = np.lib.format.open_memmap(
            os.path.join(directory, "masses.npy"), mode="w+", dtype=np.float64, shape=(n,))
        for start in range(0, n, chunk):
            sel = order[start : start + chunk]
            pos_mm[start : start + chunk] = store.positions[sel]
            mass_mm[start : start + chunk] = store.masses[sel]
        tree = build_tree(pos_mm, mass_mm, bucket_size=bucket_size, box=box)
    finally:
        shutil.rmtree(directory)

    lists = build_interaction_lists(tree, OpeningAngleMAC(theta))
    acc_sorted, pot_sorted = evaluate_interaction_lists(tree, lists, eps=eps, G=G)

    # A sink chunk is the groups whose particle run starts in it; its
    # working set is its rows plus the largest direct-source list of
    # one of those groups.
    n_src = np.diff(lists.direct_sources(tree.table)[0])
    largest = np.zeros(-(-n // chunk), dtype=np.int64)
    np.maximum.at(largest, tree.start[lists.groups] // chunk, n_src)
    rows = np.minimum(chunk, n - chunk * np.arange(largest.size))

    acc = np.empty_like(acc_sorted)
    pot = np.empty_like(pot_sorted)
    acc[order] = acc_sorted
    pot[order] = pot_sorted
    return OutOfCoreResult(acc, pot, lists.counts, int((rows + largest).max()), largest.size)
