"""Friends-of-friends halo finding.

The standard definition of a dark-matter halo in simulations like the
paper's: particles closer than ``b`` times the mean interparticle
separation belong to the same group ("dark matter halos" whose
"sub-structure" the Section 4.3 runs resolve).  Periodic boundaries are
honored; linking uses a cell grid so only neighboring cells are
searched.

Two implementations share the validation, the grid hashing
(:func:`_prepare`: one stable sort of the particles by cell) and the
halo extraction:

* :func:`friends_of_friends_reference` — the oracle: a Python walk
  over the occupied cells and their 27 neighbours, one ``(A, B)``
  distance block per cell pair, per-pair union-find with path
  compression.
* :func:`friends_of_friends` — the default array-level path: the
  neighbour ids of all occupied cells x 27 offsets are formed at once
  and looked up in a dense cell -> slot map, the surviving cell pairs are
  expanded to one flat list of ``(particle_a, particle_b)`` candidates,
  and the same distance expression filters it; connected components
  are solved by min-label propagation — backend ``scatter_min`` hooks
  plus pointer jumping.

The candidate list is never materialised: it is sliced on the flat
pair index, ``core.traversal.DEFAULT_PAIR_CHUNK`` candidates at a time,
so the temporaries of the distance test are bounded however dense one
cell is (a slice may start and end inside a cell-pair block).  What is
*not* bounded is the list of close pairs the slices leave behind: a
blob of ``n`` mutually linked particles contributes ``n (n - 1) / 2``
edges, two ``int64`` each, to the components solve.

They produce **bit-identical catalogs**: the union-find's
``parent[max] = min`` rule makes every final root the minimum particle
index of its component (induction over unions), and min-label
propagation converges to exactly that labeling; identical roots walk
through the shared extraction to identical halos and group ids
(pinned by ``tests/test_cosmology_backend_differential.py``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from ..core.backend import get_backend
from ..core.traversal import DEFAULT_PAIR_CHUNK
from .pm import wrap_unit

__all__ = ["Halo", "FofResult", "friends_of_friends", "friends_of_friends_reference"]


class _UnionFind:
    def __init__(self, n: int):
        self.parent = np.arange(n, dtype=np.int64)

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:  # path compression
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


@dataclass(frozen=True)
class Halo:
    """One FoF group."""

    members: np.ndarray  # particle indices
    center: np.ndarray  # center of mass, periodic-aware (box units)
    mass: float

    @property
    def n_members(self) -> int:
        return self.members.size


@dataclass
class FofResult:
    halos: list[Halo]
    group_id: np.ndarray  # per particle; -1 for field particles

    @property
    def n_halos(self) -> int:
        return len(self.halos)

    def mass_function(self, bins: np.ndarray) -> np.ndarray:
        """Halo counts per membership bin (the N(M) diagnostic)."""
        sizes = np.array([h.n_members for h in self.halos])
        counts, _ = np.histogram(sizes, bins=bins)
        return counts


def _periodic_com(positions: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """Center of mass on a periodic unit box via circular means: the
    per-halo oracle of :func:`_extract_halos`' batched centres."""
    angles = 2.0 * np.pi * positions
    s = np.average(np.sin(angles), axis=0, weights=masses)
    c = np.average(np.cos(angles), axis=0, weights=masses)
    return np.mod(np.arctan2(s, c) / (2.0 * np.pi), 1.0)


def _runs(sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, counts)`` of the runs of equal keys in a sorted, non-empty array."""
    starts = np.concatenate([[0], np.flatnonzero(np.diff(sorted_keys)) + 1])
    return starts, np.diff(starts, append=sorted_keys.size)


def _prepare(positions, masses, linking_length, min_members):
    """Shared validation + grid hashing for both implementations.

    Returns ``(positions, masses, link2, n_cells, order, cell_ids,
    starts, counts)`` — ``order`` sorts the particles by cell (stably,
    so every cell's members ascend), ``cell_ids`` are the occupied cell
    ids in ascending order, and cell ``cell_ids[k]`` holds particles
    ``order[starts[k] : starts[k] + counts[k]]`` — or ``None`` for an
    empty input (no particles — no halos).
    """
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise ValueError("positions must be (N, 3)")
    # Before the wrap: it turns inf into NaN, and the int cast of a NaN
    # cell coordinate is an arbitrary cell, not an error.
    if not np.isfinite(positions).all():
        raise ValueError("positions must be finite")
    positions = wrap_unit(positions)
    n = positions.shape[0]
    if masses is None:
        masses = np.full(n, 1.0 / n) if n else np.zeros(0)
    else:
        masses = np.asarray(masses, dtype=np.float64)
        if masses.shape != (n,):
            raise ValueError(f"masses must be ({n},) to match positions")
        # Positive, not just non-negative: a halo of massless members
        # has no center of mass.
        if not (np.isfinite(masses).all() and (masses > 0).all()):
            raise ValueError("masses must be finite and positive")
    if not (np.isfinite(linking_length) and linking_length > 0):
        raise ValueError("linking_length must be finite and positive")
    try:
        min_members = operator.index(min_members)
    except TypeError:
        raise ValueError("min_members must be an integer") from None
    if min_members < 1:
        raise ValueError("min_members must be at least 1")
    if n == 0:
        return None
    link = linking_length * n ** (-1.0 / 3.0)  # box units
    # Cell grid with cells >= the linking length.
    n_cells = max(int(min(1.0 / link, 64.0)), 1)
    cell = (positions * n_cells).astype(np.int64) % n_cells
    cell_id = (cell[:, 0] * n_cells + cell[:, 1]) * n_cells + cell[:, 2]
    order = np.argsort(cell_id, kind="stable")
    sorted_ids = cell_id[order]
    starts, counts = _runs(sorted_ids)
    return (positions, masses, link * link, n_cells, order,
            sorted_ids[starts], starts, counts)


_NEIGHBOR_OFFSETS = [
    (dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)
]


def _cell_pairs(members_of: dict[int, np.ndarray], n_cells: int):
    """Yield ``(idx_a, idx_b, same_cell)`` member blocks to link, each
    unordered cell pair exactly once (the reference's visit order)."""
    for cid, idx_a in members_of.items():
        cz = cid % n_cells
        cy = (cid // n_cells) % n_cells
        cx = cid // (n_cells * n_cells)
        for dx, dy, dz in _NEIGHBOR_OFFSETS:
            nid = (
                ((cx + dx) % n_cells) * n_cells + ((cy + dy) % n_cells)
            ) * n_cells + ((cz + dz) % n_cells)
            if nid < cid:
                continue  # each cell pair once
            idx_b = members_of.get(int(nid))
            if idx_b is None:
                continue
            yield idx_a, idx_b, nid == cid


def _close_pairs(positions, idx_a, idx_b, link2):
    """Boolean (A, B) matrix of periodic separations <= link."""
    d = positions[idx_a][:, None, :] - positions[idx_b][None, :, :]
    d -= np.round(d)  # periodic minimum image
    return (d**2).sum(axis=2) <= link2


def _extract_halos(roots, positions, masses, min_members) -> FofResult:
    """Roots -> catalog; shared, so identical roots give identical halos.

    Centres and masses are formed one distinct member count at a time,
    as ``(halos, members, 3)`` blocks reduced along the member axis: per
    halo the operations, and their order, of :func:`_periodic_com` and
    of ``masses[members].sum()`` (held to both, bit for bit, by
    ``tests/test_cosmology_backend_differential.py``).
    """
    n = positions.shape[0]
    # One stable sort groups the particles by root with every group's
    # members ascending; groups come out in ascending-root order.
    by_root = np.argsort(roots, kind="stable")
    starts, sizes = _runs(roots[by_root])
    kept = sizes >= min_members
    starts, sizes = starts[kept], sizes[kept]
    centers = np.empty((sizes.size, 3))
    mass = np.empty(sizes.size)
    for size in np.unique(sizes):
        block = np.flatnonzero(sizes == size)
        members = by_root[starts[block, None] + np.arange(size)]  # (halos, size)
        m = masses[members]
        angles = 2.0 * np.pi * positions[members]
        mass[block] = norm = m.sum(axis=1)
        s = (np.sin(angles) * m[:, :, None]).sum(axis=1) / norm[:, None]
        c = (np.cos(angles) * m[:, :, None]).sum(axis=1) / norm[:, None]
        centers[block] = wrap_unit(np.arctan2(s, c) / (2.0 * np.pi))
    halos = [
        Halo(members=by_root[start : start + size], center=center, mass=m)
        for start, size, center, m in zip(starts.tolist(), sizes.tolist(), centers, mass.tolist())
    ]
    halos.sort(key=lambda h: -h.mass)
    group_id = np.full(n, -1, dtype=np.int64)
    for i, h in enumerate(halos):
        group_id[h.members] = i
    return FofResult(halos, group_id)


def friends_of_friends_reference(
    positions: np.ndarray,
    masses: np.ndarray | None = None,
    *,
    linking_length: float = 0.2,
    min_members: int = 10,
) -> FofResult:
    """FoF via per-pair union-find — the differential-test anchor."""
    prep = _prepare(positions, masses, linking_length, min_members)
    if prep is None:
        return FofResult([], np.full(0, -1, dtype=np.int64))
    positions, masses, link2, n_cells, order, cell_ids, starts, counts = prep
    n = positions.shape[0]
    members_of = {
        int(cid): order[s : s + c] for cid, s, c in zip(cell_ids, starts, counts)
    }
    uf = _UnionFind(n)
    for idx_a, idx_b, same_cell in _cell_pairs(members_of, n_cells):
        close = _close_pairs(positions, idx_a, idx_b, link2)
        for ia, ib in zip(*np.nonzero(close)):
            if not same_cell or idx_a[ia] < idx_b[ib]:
                uf.union(int(idx_a[ia]), int(idx_b[ib]))
    roots = np.array([uf.find(i) for i in range(n)])
    return _extract_halos(roots, positions, masses, min_members)


def _connected_minima(n: int, a: np.ndarray, b: np.ndarray, kb) -> np.ndarray:
    """Per-particle minimum index of its connected component.

    Min-label propagation: every particle starts labeled with its own
    index; each round scatters the smaller endpoint label across every
    edge (backend ``scatter_min``) and then pointer-jumps labels to
    their fixpoint.  Labels only decrease and are bounded by the true
    component minimum, which is reachable, so the loop converges — to
    the same labeling the union-find's ``parent[max] = min`` rule
    produces.
    """
    labels = np.arange(n, dtype=np.int64)
    if a.size == 0:
        return labels
    while True:
        prev = labels.copy()
        m = np.minimum(labels[a], labels[b])
        kb.scatter_min(labels, a, m)
        kb.scatter_min(labels, b, m)
        while True:  # pointer jumping: label of my label
            nxt = labels[labels]
            if np.array_equal(nxt, labels):
                break
            labels = nxt
        if np.array_equal(labels, prev):
            return labels


def _linked_pairs(positions, link2, n_cells, order, cell_ids, starts, counts):
    """Particle index arrays ``(a, b)`` of every pair closer than the
    linking length, from the cell-sorted arrays of :func:`_prepare`.

    The blocks :func:`_cell_pairs` yields one at a time are built here
    as arrays: all occupied cells x 27 offsets at once, each unordered
    pair of occupied cells once.  Each axis coordinate is wrapped for its
    three offsets (``(3, occupied)`` values per axis), and the three
    axes broadcast to the ``(27, occupied)`` neighbour ids in
    :data:`_NEIGHBOR_OFFSETS` order.  Occupied
    neighbours are found through ``slot``, a dense map from every cell
    of the grid (at most 64^3, see :func:`_prepare`) to its position in
    ``cell_ids``, or -1.  The member products of the cell pairs are laid
    end to end on one flat candidate index, and the distance test runs
    over that index ``DEFAULT_PAIR_CHUNK`` candidates at a time.
    """
    axes = np.array(np.unravel_index(cell_ids, (n_cells,) * 3))  # (3, occupied): x, y, z
    wx, wy, wz = (axes[:, None, :] + np.arange(-1, 2)[:, None]) % n_cells  # (3, occupied) each
    nid = ((wx[:, None, None] * n_cells + wy[None, :, None]) * n_cells
           + wz[None, None, :]).reshape(27, -1)
    off, ca = np.nonzero(nid >= cell_ids)  # each cell pair once
    slot = np.full(n_cells**3, -1, dtype=np.int32)
    slot[cell_ids] = np.arange(cell_ids.size)
    cb = slot[nid[off, ca]]
    occupied = cb >= 0
    # On grids under three cells a side wrapped offsets alias the same
    # neighbour; visiting a block once finds every pair it holds.
    ca, cb = np.divmod(
        np.unique(ca[occupied] * cell_ids.size + cb[occupied]), cell_ids.size
    )
    sizes = counts[ca] * counts[cb]
    ends = np.cumsum(sizes)
    total = int(ends[-1])
    pair_a: list[np.ndarray] = []
    pair_b: list[np.ndarray] = []
    for lo in range(0, total, DEFAULT_PAIR_CHUNK):
        flat = np.arange(lo, min(lo + DEFAULT_PAIR_CHUNK, total))
        k = np.searchsorted(ends, flat, side="right")  # block of each candidate
        cell_a, cell_b = ca[k], cb[k]
        row, col = np.divmod(flat - (ends[k] - sizes[k]), counts[cell_b])
        ia = order[starts[cell_a] + row]
        ib = order[starts[cell_b] + col]
        d = positions[ia] - positions[ib]
        d -= np.round(d)  # periodic minimum image
        keep = (d**2).sum(axis=-1) <= link2
        # Same-cell blocks hold each pair twice and every self-pair.
        keep &= (cell_a != cell_b) | (ia < ib)
        pair_a.append(ia[keep])
        pair_b.append(ib[keep])
    return np.concatenate(pair_a), np.concatenate(pair_b)


def friends_of_friends(
    positions: np.ndarray,
    masses: np.ndarray | None = None,
    *,
    linking_length: float = 0.2,
    min_members: int = 10,
    backend=None,
) -> FofResult:
    """FoF groups on a periodic unit box.

    ``linking_length`` is in units of the mean interparticle separation
    (the community-standard b = 0.2 default); ``min_members`` drops
    spurious few-particle groups, as every halo catalog does.

    Batched: every candidate pair of the occupied neighbouring cells is
    tested in flat array slices and the close ones are solved as one
    connected-components problem — bit-identical to
    :func:`friends_of_friends_reference` (module docstring has the
    argument).
    """
    prep = _prepare(positions, masses, linking_length, min_members)
    if prep is None:
        return FofResult([], np.full(0, -1, dtype=np.int64))
    positions, masses, link2, n_cells, order, cell_ids, starts, counts = prep
    a, b = _linked_pairs(positions, link2, n_cells, order, cell_ids, starts, counts)
    roots = _connected_minima(positions.shape[0], a, b, get_backend(backend))
    return _extract_halos(roots, positions, masses, min_members)
