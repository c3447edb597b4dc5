"""Adaptive oct-tree construction from Morton-sorted particles.

The build follows the hashed oct-tree recipe: particles are sorted by
Morton key, after which every tree cell corresponds to a *contiguous
run* of the particle array (the defining property of Z-order).  The
cells themselves come from the parallel code's bulk builder,
:meth:`~repro.core.cellserver.CellServer.subtree` from the root key: one
tree level at a time, a cell's run split at its octant boundaries with
``searchsorted`` and its moments taken as differences of prefix sums,
stopping where a run fits in a leaf bucket.  A serial tree is the
one-rank case of the parallel code's virtual global tree, cell for cell
and bit for bit.  :attr:`Tree.table` enters every cell into a hashed
:class:`~repro.core.celltable.CellTable` under its Morton key: the table
the gravity walk and the SPH neighbour search run over (row = cell id, a
child reached through ``child_row``), the same structure a rank of the
parallel code keeps, with nothing remote in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cellserver import CellServer, key_levels
from .celltable import CellBatch, CellTable
from .keys import MAX_LEVEL, ROOT_KEY, BoundingBox, keys_from_positions

__all__ = ["Tree", "build_tree"]


@dataclass
class Tree:
    """A built oct-tree over a particle set.

    Particle arrays are stored in Morton order; ``order`` maps sorted
    positions back to the caller's original indexing
    (``positions[i] == original_positions[order[i]]``).

    Cell arrays are indexed by cell id.  Cells are numbered one tree
    level at a time: the root is 0, then every level-1 cell, then every
    level-2 cell, each level in key order.  Children of a cell are
    contiguous: ``first_child : first_child + n_children``.  The cell
    columns are those of ``cells``, the builder's
    :class:`~repro.core.celltable.CellBatch` (the same arrays, not
    copies); ``parent``, ``first_child`` and ``level`` are derived from
    it.
    """

    # particle data, Morton-sorted
    positions: np.ndarray
    masses: np.ndarray
    keys: np.ndarray
    order: np.ndarray
    box: BoundingBox
    bucket_size: int

    # cell topology
    cell_keys: np.ndarray
    level: np.ndarray
    start: np.ndarray
    count: np.ndarray
    parent: np.ndarray
    first_child: np.ndarray
    n_children: np.ndarray

    # multipoles
    mass: np.ndarray
    com: np.ndarray
    quad: np.ndarray
    bmax: np.ndarray

    cells: CellBatch

    @cached_property
    def table(self) -> CellTable:
        """The cells as the one-rank :class:`CellTable` every walk runs
        over, seeded on first use over the builder's batch (row = cell
        id; the children of a cell are the rows after it, so every
        cell but the root is one child slot, in id order)."""
        return CellTable.over(self.cells)

    @property
    def n_particles(self) -> int:
        return self.positions.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cell_keys.shape[0]

    @property
    def is_leaf(self) -> np.ndarray:
        return self.n_children == 0

    @property
    def leaf_ids(self) -> np.ndarray:
        return np.flatnonzero(self.is_leaf)

    def cell_size(self, cells: np.ndarray | int) -> np.ndarray | float:
        """Edge length of cell(s) from their level."""
        lv = self.level[cells]
        return self.box.size / np.power(2.0, lv)

    def children_of(self, cell: int) -> np.ndarray:
        fc = self.first_child[cell]
        return np.arange(fc, fc + self.n_children[cell])

    def particles_of(self, cell: int) -> slice:
        return slice(int(self.start[cell]), int(self.start[cell] + self.count[cell]))

    def find_cell(self, key: int) -> int | None:
        """Look a cell up by Morton key through the table's hash index."""
        return self.table.index.get(int(key))

    def validate(self) -> None:
        """Structural invariants; raises AssertionError on violation.

        Used by tests.
        """
        assert self.cell_keys[0] == ROOT_KEY
        assert self.count[0] == self.n_particles
        for c in range(self.n_cells):
            kids = self.children_of(c)
            if kids.size:
                assert int(self.count[kids].sum()) == int(self.count[c]), c
                assert int(self.start[kids[0]]) == int(self.start[c]), c
                assert np.all(self.parent[kids] == c)
                assert np.all(self.level[kids] == self.level[c] + 1)
            else:
                assert self.count[c] <= self.bucket_size or self.level[c] == MAX_LEVEL


def build_tree(
    positions: np.ndarray,
    masses: np.ndarray | None = None,
    *,
    bucket_size: int = 32,
    box: BoundingBox | None = None,
) -> Tree:
    """Build an adaptive oct-tree with its cell multipoles.

    Parameters
    ----------
    positions:
        ``(N, 3)`` particle coordinates.
    masses:
        ``(N,)`` masses; defaults to ``1/N`` each (unit total mass).
    bucket_size:
        Maximum particles in a leaf.  Smaller buckets mean a deeper
        tree: more cells but shorter direct-interaction lists.
    box:
        Key-space cube; computed from the points when omitted.

    Cells are numbered level by level, and a cell's children are
    contiguous ids.  Two pairs of particles in opposite octants of the
    root, split apart at level 2:

    >>> pos = [[0.1, 0.1, 0.1], [0.3, 0.1, 0.1], [0.7, 0.9, 0.9], [0.9, 0.9, 0.9]]
    >>> tree = build_tree(np.array(pos), bucket_size=1)
    >>> tree.level.tolist()
    [0, 1, 1, 2, 2, 2, 2]
    >>> tree.parent.tolist()
    [-1, 0, 0, 1, 1, 2, 2]
    >>> tree.first_child[:3].tolist(), tree.n_children[:3].tolist()
    ([1, 3, 5], [2, 2, 2])
    """
    positions = np.ascontiguousarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise ValueError("positions must have shape (N, 3)")
    n = positions.shape[0]
    if n == 0:
        raise ValueError("cannot build a tree with no particles")
    if not np.all(np.isfinite(positions)):
        raise ValueError("positions must be finite")
    if masses is None:
        masses = np.full(n, 1.0 / n)
    else:
        masses = np.ascontiguousarray(masses, dtype=np.float64)
        if masses.shape != (n,):
            raise ValueError("masses must have shape (N,)")
        if not np.all(np.isfinite(masses)):
            raise ValueError("masses must be finite")
        if np.any(masses < 0):
            raise ValueError("masses must be non-negative")
    if bucket_size < 1:
        raise ValueError("bucket_size must be >= 1")
    if box is None:
        box = BoundingBox.from_points(positions)

    keys = keys_from_positions(positions, box)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    positions = positions[order]
    masses = masses[order]

    cells = CellServer(keys, positions, masses, box, bucket_size=bucket_size).subtree([ROOT_KEY])
    return Tree(
        positions=positions, masses=masses, keys=keys, order=order, box=box,
        bucket_size=bucket_size, cell_keys=cells.key, level=key_levels(cells.key).astype(np.int64),
        start=cells.pstart, count=cells.count,
        parent=np.concatenate(([-1], np.repeat(np.arange(len(cells)), cells.cn))),
        first_child=cells.cstart + 1, n_children=cells.cn, mass=cells.mass, com=cells.com,
        quad=cells.quad, bmax=cells.bmax, cells=cells,
    )
