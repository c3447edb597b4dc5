"""Adaptive oct-tree construction from Morton-sorted particles.

The build follows the hashed oct-tree recipe: particles are sorted by
Morton key, after which every tree cell corresponds to a *contiguous
run* of the particle array (the defining property of Z-order).  Cells
are produced top-down by splitting runs at octant boundaries (found
with ``searchsorted`` — no per-particle Python work), stopping when a
run fits in a leaf bucket.  :attr:`Tree.table` enters every cell into a
hashed :class:`~repro.core.celltable.CellTable` under its Morton key:
the table the gravity walk and the SPH neighbour search run over (row =
cell id, a child reached through ``child_row``), the same structure a
rank of the parallel code keeps, with nothing remote in it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .celltable import CellBatch, CellTable
from .keys import MAX_LEVEL, ROOT_KEY, BoundingBox, keys_from_positions

__all__ = ["Tree", "build_tree"]

_U = np.uint64


@dataclass
class Tree:
    """A built oct-tree over a particle set.

    Particle arrays are stored in Morton order; ``order`` maps sorted
    positions back to the caller's original indexing
    (``positions[i] == original_positions[order[i]]``).

    Cell arrays are indexed by cell id (root = 0).  Children of a cell
    are contiguous: ``first_child : first_child + n_children``.
    Multipole arrays (``mass``, ``com``, ``quad``, ``bmax``) are filled
    by :func:`repro.core.multipole.compute_multipoles`.
    """

    # particle data, Morton-sorted
    positions: np.ndarray
    masses: np.ndarray
    keys: np.ndarray
    order: np.ndarray
    box: BoundingBox
    bucket_size: int

    # cell topology
    cell_keys: np.ndarray = field(default=None)
    level: np.ndarray = field(default=None)
    start: np.ndarray = field(default=None)
    count: np.ndarray = field(default=None)
    parent: np.ndarray = field(default=None)
    first_child: np.ndarray = field(default=None)
    n_children: np.ndarray = field(default=None)

    # multipoles (filled post-build)
    mass: np.ndarray = field(default=None)
    com: np.ndarray = field(default=None)
    quad: np.ndarray = field(default=None)
    bmax: np.ndarray = field(default=None)

    @cached_property
    def table(self) -> CellTable:
        """The cells as the one-rank :class:`CellTable` every walk runs
        over, seeded on first use over the tree's own arrays (row = cell
        id; the children of a cell are the rows after it, so every
        cell but the root is one child slot, in id order)."""
        if self.mass is None:
            raise ValueError("tree has no multipoles; build with with_multipoles=True")
        return CellTable.over(CellBatch(
            key=self.cell_keys, count=self.count, mass=self.mass, com=self.com, quad=self.quad,
            bmax=self.bmax, leaf=self.is_leaf, cstart=self.first_child - 1, cn=self.n_children,
            child_key=self.cell_keys[1:], pstart=self.start,
            pn=np.where(self.is_leaf, self.count, 0), ppos=self.positions, pmass=self.masses))

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

        Used by tests and by the parallel code's debug mode.
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
    with_multipoles: bool = True,
) -> Tree:
    """Build an adaptive oct-tree (and optionally its multipoles).

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
    """
    positions = np.ascontiguousarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise ValueError("positions must have shape (N, 3)")
    n = positions.shape[0]
    if n == 0:
        raise ValueError("cannot build a tree with no particles")
    if masses is None:
        masses = np.full(n, 1.0 / n)
    else:
        masses = np.ascontiguousarray(masses, dtype=np.float64)
        if masses.shape != (n,):
            raise ValueError("masses must have shape (N,)")
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

    # Top-down subdivision.  Each stack entry is a cell whose particle
    # run [s, e) is known; children are discovered by octant boundaries
    # inside the run.
    cell_keys: list[int] = [ROOT_KEY]
    level: list[int] = [0]
    start: list[int] = [0]
    count: list[int] = [n]
    parent: list[int] = [-1]
    first_child: list[int] = [0]
    n_children: list[int] = [0]

    stack = [0]
    while stack:
        c = stack.pop()
        if count[c] <= bucket_size or level[c] >= MAX_LEVEL:
            continue  # leaf
        s, e = start[c], start[c] + count[c]
        child_level = level[c] + 1
        shift = _U(3 * (MAX_LEVEL - child_level))
        run = keys[s:e] >> shift
        # Octant boundaries within the sorted run.
        boundaries = np.searchsorted(run, (_U(cell_keys[c]) << _U(3)) + np.arange(9, dtype=np.uint64))
        first_child[c] = len(cell_keys)
        for octant in range(8):
            lo, hi = int(boundaries[octant]), int(boundaries[octant + 1])
            if lo == hi:
                continue
            child_id = len(cell_keys)
            cell_keys.append((cell_keys[c] << 3) | octant)
            level.append(child_level)
            start.append(s + lo)
            count.append(hi - lo)
            parent.append(c)
            first_child.append(0)
            n_children.append(0)
            n_children[c] += 1
            stack.append(child_id)

    tree = Tree(
        positions=positions,
        masses=masses,
        keys=keys,
        order=order,
        box=box,
        bucket_size=bucket_size,
        cell_keys=np.array(cell_keys, dtype=np.uint64),
        level=np.array(level, dtype=np.int64),
        start=np.array(start, dtype=np.int64),
        count=np.array(count, dtype=np.int64),
        parent=np.array(parent, dtype=np.int64),
        first_child=np.array(first_child, dtype=np.int64),
        n_children=np.array(n_children, dtype=np.int64),
    )
    if with_multipoles:
        from .multipole import compute_multipoles

        compute_multipoles(tree)
    return tree
