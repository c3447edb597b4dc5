"""Tree-based SPH neighbor search.

The paper's supernova code works "by implementing the smooth particle
hydrodynamics formalism onto the tree structure described above for
N-body studies": neighbor finding rides on the same hashed oct-tree.
For each leaf group of a built :class:`~repro.core.tree.Tree`, the tree
is walked pruning cells farther from the group than the search radius,
candidate particles are gathered from surviving leaves, and
distance-filtered per particle.

:func:`find_neighbors` runs that walk *batched*, and it is the gravity
code's walk: :func:`repro.core.traversal.walk` over the tree's hashed
cell table (:attr:`Tree.table <repro.core.tree.Tree.table>`), with
"beyond the group's reach" as the acceptance rule — what the rule
accepts is dropped, the leaves it opens are the candidates.  The
candidate filter is evaluated as flat chunked pair arrays, built by run
expansion: a chunk holds whole groups in particle-run order, so its
sinks are one ascending run, each sink is repeated once per candidate
of its group and the candidates are gathered with ``csr_take`` — no
division of a flat pair index back into (sink, candidate).  The
historical per-group walker is kept as
:func:`find_neighbors_reference`; both return the same neighbor *sets*
(the batched path emits each particle's list sorted by candidate-leaf
emission order, the reference by its stack order).

The result is a CSR-style neighbor list (offsets + flat indices, both
in *tree order*, plus the squared separation ``d2`` of every listed
pair, by the distance filter's own arithmetic), which the density and force
loops consume with pure array arithmetic.

A search at larger radii is a *skin*, as in a Verlet list: its lists
answer any smaller radii without a walk.  :meth:`NeighborLists.within`
filters each list by ``d2 <= radii[i]**2``, and the result is bit for
bit the search at ``radii`` — a larger reach only adds cells to each
group's walk frontier, keeping the relative order of the rest, so the
smaller search's candidates are a subsequence of the larger's, and the
filter is the same comparison on the same bits.  ``adapt_smoothing``
searches once at a skin and filters every iteration from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.backend import get_backend
from ..core.celltable import csr_take
from ..core.traversal import DEFAULT_PAIR_CHUNK, csr_by_group, leaf_particles, walk
from ..core.tree import Tree
from ..obs import wallclock

__all__ = [
    "NeighborLists",
    "find_neighbors",
    "find_neighbors_reference",
    "symmetric_pairs",
]


@dataclass
class NeighborLists:
    """CSR neighbor structure over Morton-sorted (tree-order) particles."""

    offsets: np.ndarray  # (N+1,)
    neighbors: np.ndarray  # flat indices, tree order
    search_radii: np.ndarray  # (N,) radii used
    d2: np.ndarray  # squared separation of each listed pair
    _pairs: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n_particles(self) -> int:
        return self.offsets.shape[0] - 1

    def of(self, i: int) -> np.ndarray:
        """Neighbor indices of tree-order particle ``i`` (includes self)."""
        return self.neighbors[self.offsets[i] : self.offsets[i + 1]]

    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    def within(self, radii: np.ndarray) -> "NeighborLists":
        """The lists of a search at ``radii``, no radius above
        ``search_radii``, cut from these without a walk: each list
        filtered by the search's own ``d2 <= radii[i]**2``, in order."""
        if np.any(radii > self.search_radii):
            raise ValueError("radii beyond the search radii need a new search")
        keep = self.d2 <= np.repeat(radii * radii, self.counts())
        kept = np.concatenate(([0], np.cumsum(keep)))
        return NeighborLists(kept[self.offsets], self.neighbors[keep], radii, self.d2[keep])


def symmetric_pairs(lists: "NeighborLists") -> tuple[np.ndarray, np.ndarray]:
    """Unique unordered interaction pairs (i < j) from gather lists.

    With per-particle smoothing lengths the gather lists are
    *asymmetric* (i may see j inside 2h_i while j does not see i inside
    2h_j).  Conservative SPH sums need each pair exactly once, acting
    on both members — the union of both directions, deduplicated.
    Computed once per ``lists`` (read-only arrays, cached on it).
    """
    if lists._pairs is None:
        n = lists.n_particles
        i_idx = np.repeat(np.arange(n, dtype=np.int64), lists.counts())
        j_idx = lists.neighbors
        keep = i_idx != j_idx
        a = np.minimum(i_idx[keep], j_idx[keep])
        b = np.maximum(i_idx[keep], j_idx[keep])
        packed = np.unique(a * np.int64(n) + b)
        lists._pairs = (packed // n, packed % n)
        for half in lists._pairs:
            half.flags.writeable = False
    return lists._pairs


def _candidate_leaves(tree: Tree, center: np.ndarray, radius: float) -> list[int]:
    """Leaves whose bounding sphere intersects the search sphere."""
    found: list[int] = []
    stack = [0]
    while stack:
        c = stack.pop()
        # Conservative prune: cell bounding sphere around its COM.
        d = float(np.linalg.norm(tree.com[c] - center))
        if d - tree.bmax[c] > radius:
            continue
        if tree.n_children[c] == 0:
            found.append(c)
        else:
            fc = tree.first_child[c]
            stack.extend(range(fc, fc + tree.n_children[c]))
    return found


def _validate_radii(tree: Tree, radii: np.ndarray) -> np.ndarray:
    radii = np.asarray(radii, dtype=np.float64)
    if radii.shape != (tree.n_particles,):
        raise ValueError("radii must have one entry per particle")
    if np.any(radii <= 0):
        raise ValueError("search radii must be positive")
    return radii


class _BeyondReach:
    """The walk's acceptance rule for a search: a cell whose bounding
    sphere lies beyond the group's reach is done with (dropped)."""

    @staticmethod
    def accept(dist, cell_bmax, reach, cell_mass):
        return dist - cell_bmax > reach


def find_neighbors(
    tree: Tree,
    radii: np.ndarray,
    *,
    pair_chunk: int = DEFAULT_PAIR_CHUNK,
    backend=None,
) -> NeighborLists:
    """All particles within ``radii[i]`` of particle ``i`` (tree order).

    ``radii`` is per-particle (typically ``2 h_i``); the search uses
    the max radius within each leaf group so gather-scatter symmetry at
    equal radii is exact.  The tree is walked for all groups per
    frontier pass, and the candidate distance filter runs over flat
    (sink, candidate) pair arrays chunked to ``pair_chunk``,
    evaluated by the selected kernel backend (``pair_within`` +
    ``bincount_sum`` — exact comparisons and integer counts, so the
    neighbor sets are backend-independent).
    """
    radii = _validate_radii(tree, radii)
    n = tree.n_particles
    if pair_chunk < 1:
        raise ValueError("pair_chunk must be positive")
    kb = get_backend(backend)
    with wallclock.span("sph.neighbors", cat="sph"):
        table = tree.table
        groups = tree.leaf_ids
        n_groups = groups.shape[0]
        g_start = tree.start[groups]
        g_cnt = tree.count[groups]

        # Per-group search reach: the group's spatial extent around its
        # COM plus the largest member radius.  Leaf particle runs
        # partition [0, N) but leaf_ids is not in run order, so segment
        # through a start-sorted view.
        centers = table.com[groups]
        run_order = np.argsort(g_start, kind="stable")
        g_of = np.repeat(run_order, g_cnt[run_order])  # particle -> group
        d = np.linalg.norm(tree.positions - centers[g_of], axis=1)
        reach = np.empty(n_groups)
        reach[run_order] = (
            np.maximum.reduceat(d, g_start[run_order])
            + np.maximum.reduceat(radii, g_start[run_order])
        )

        # The tree walk of the gravity code, pruning instead of
        # approximating: what it opens are the candidate leaves.
        everyone = np.arange(n_groups, dtype=np.int64)
        _, (og, oc), _, mac_tests, _, _ = walk(
            table, (groups, centers, reach), _BeyondReach, everyone, np.zeros_like(everyone))
        # Their particles are the candidates, CSR by group.
        cand_off, cand_flat = leaf_particles(table, *csr_by_group(og, oc, n_groups))
        nc = np.diff(cand_off)

        # Distance filter over flat (sink, candidate) pairs, chunked.
        # Groups are processed in particle-run order, so a chunk's sinks
        # are one ascending run [s0, s1) and its pairs are built by run
        # expansion, sink-major: the surviving pairs come out sorted by
        # sink id — the CSR layout directly.
        g_start_s = g_start[run_order]
        g_cnt_s = g_cnt[run_order]
        nc_s = nc[run_order]
        cand_off_s = cand_off[run_order]
        ppg = g_cnt_s * nc_s  # pairs per group
        cum_p = np.zeros(n_groups + 1, dtype=np.int64)
        np.cumsum(ppg, out=cum_p[1:])
        neigh_counts = np.zeros(n, dtype=np.int64)
        kept_j: list[np.ndarray] = []
        kept_d2: list[np.ndarray] = []
        pos = tree.positions
        r2 = radii * radii
        lo = 0
        while lo < n_groups:
            hi = int(np.searchsorted(cum_p, cum_p[lo] + pair_chunk, side="right")) - 1
            hi = min(max(hi, lo + 1), n_groups)  # always make progress
            if cum_p[hi] == cum_p[lo]:
                lo = hi
                continue
            s0, s1 = g_start_s[lo], g_start_s[hi - 1] + g_cnt_s[hi - 1]
            nc_sink = np.repeat(nc_s[lo:hi], g_cnt_s[lo:hi])  # candidates of each sink
            i_pair = np.repeat(np.arange(s0, s1), nc_sink)
            j_pair = cand_flat[csr_take(np.repeat(cand_off_s[lo:hi], g_cnt_s[lo:hi]), nc_sink)]
            within = kb.pair_within(pos, i_pair, j_pair, np.repeat(r2[s0:s1], nc_sink))
            ik, jk = i_pair[within], j_pair[within]
            neigh_counts += kb.bincount_sum(ik, None, n)
            kept_j.append(jk)
            # pair_within's arithmetic again, on the kept pairs only.
            dk = pos.take(ik, axis=0) - pos.take(jk, axis=0)
            kept_d2.append(np.einsum("ij,ij->i", dk, dk))
            lo = hi
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(neigh_counts, out=offsets[1:])
        flat = np.concatenate(kept_j) if kept_j else np.empty(0, dtype=np.int64)
        d2 = np.concatenate(kept_d2) if kept_d2 else np.empty(0)
        wallclock.count("sph.neighbor_mac_tests", mac_tests)
        wallclock.count("sph.neighbor_candidates", int(ppg.sum()))
    return NeighborLists(offsets, flat, radii, d2)


def find_neighbors_reference(tree: Tree, radii: np.ndarray) -> NeighborLists:
    """The pre-batching per-group walker (pinning reference).

    Same neighbor sets as :func:`find_neighbors`; per-particle list
    order follows its depth-first stack order instead of the batched
    walker's level order.
    """
    radii = _validate_radii(tree, radii)
    n = tree.n_particles
    lists: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * n
    d2s: list[np.ndarray] = [np.empty(0)] * n
    for leaf in tree.leaf_ids:
        sl = tree.particles_of(leaf)
        sinks = tree.positions[sl]
        r_group = radii[sl]
        center = tree.com[leaf]
        group_reach = float(np.linalg.norm(sinks - center, axis=1).max() + r_group.max())
        cand_leaves = _candidate_leaves(tree, center, group_reach)
        cand = np.concatenate(
            [np.arange(tree.start[c], tree.start[c] + tree.count[c]) for c in cand_leaves]
        )
        dr = sinks[:, None, :] - tree.positions[cand][None, :, :]
        dist2 = np.einsum("ijk,ijk->ij", dr, dr)
        within = dist2 <= (r_group[:, None] ** 2)
        for row, i in enumerate(range(sl.start, sl.stop)):
            lists[i], d2s[i] = cand[within[row]], dist2[row][within[row]]
    offsets = np.zeros(n + 1, dtype=np.int64)
    offsets[1:] = np.cumsum([lst.size for lst in lists])
    flat = np.concatenate(lists) if n else np.empty(0, dtype=np.int64)
    return NeighborLists(offsets, flat, radii, np.concatenate(d2s) if n else np.empty(0))
