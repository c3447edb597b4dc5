"""Work-weighted domain decomposition along the Morton curve.

Section 4.2: *"The domain decomposition is obtained by splitting this
list into N_p (number of processors) pieces … practically identical to
a parallel sorting algorithm, with the modification that the amount of
data that ends up in each processor is weighted by the work associated
with each item."*

:func:`split_weighted` performs the serial splitting primitive —
choosing key-space boundaries so each piece carries an equal share of
the total work — and :func:`decompose` applies it to particle sets.
The rank-local halves of the parallel sample sort the treecode runs
over SimMPI live here too: :func:`key_sort` orders a rank's columns
along the curve, :func:`sample_splitters` draws its splitter sample,
:func:`pick_splitters` turns the allgathered samples into the
key-space boundaries every rank agrees on, :func:`splitter_cuts` puts
them in one array, and :func:`piece_bounds` cuts a rank's sorted keys
at them for the exchange (the collectives
themselves stay in :mod:`repro.core.parallel`).  :func:`splitter_candidates` and
:func:`merge_splitter_candidates` move those boundaries between
timesteps from measured work.  :func:`morton_traversal_order_2d`
produces the self-similar load-balancing curve of Figure 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .keys import BoundingBox, keys_from_positions, keys_from_positions_2d

__all__ = [
    "split_weighted",
    "DomainDecomposition",
    "decompose",
    "key_sort",
    "sample_splitters",
    "pick_splitters",
    "splitter_cuts",
    "piece_bounds",
    "splitter_candidates",
    "merge_splitter_candidates",
    "morton_traversal_order_2d",
]

#: Key-space sentinels of a splitter list: every particle key has the
#: placeholder bit 63 set, so ``[MIN_PKEY, END_PKEY)`` covers them all.
MIN_PKEY = 1 << 63
END_PKEY = 1 << 64


def split_weighted(work: np.ndarray, n_pieces: int) -> np.ndarray:
    """Boundaries splitting a work array into balanced contiguous runs.

    Returns ``n_pieces + 1`` indices ``b`` with ``b[0] == 0`` and
    ``b[-1] == len(work)``; piece ``p`` is ``[b[p], b[p+1])``.  The cut
    points are where cumulative work crosses equal shares, so no piece
    exceeds the ideal share by more than one item's work.

    ``work`` must be 1-D, non-negative, and finite.  A zero-total work
    array is an explicitly defined degenerate case: the split falls
    back to balancing by *count* (a uniform split of the indices), so
    first-step callers that have no work measurements yet get the same
    decomposition as passing uniform weights.

    >>> split_weighted(np.array([1.0, 1.0, 4.0, 1.0, 1.0]), 2)
    array([0, 2, 5])
    >>> split_weighted(np.zeros(12), 3)  # degenerate: count-balanced
    array([ 0,  4,  8, 12])
    """
    work = np.asarray(work, dtype=np.float64)
    if work.ndim != 1:
        raise ValueError("work must be 1-D")
    if not np.all(np.isfinite(work)):
        raise ValueError("work must be finite")
    if np.any(work < 0):
        raise ValueError("work must be non-negative")
    if n_pieces < 1:
        raise ValueError("n_pieces must be >= 1")
    total = work.sum()
    if total == 0:
        # Degenerate: balance by count instead.
        return np.linspace(0, work.size, n_pieces + 1).astype(np.int64)
    cum = np.concatenate([[0.0], np.cumsum(work)])
    targets = total * np.arange(1, n_pieces) / n_pieces
    # Nearest-rounding of each boundary: cut where cumulative work is
    # closest to the target share, so no piece misses its share by more
    # than one item's work.
    hi = np.searchsorted(cum, targets, side="left")
    hi = np.clip(hi, 1, work.size)
    lo = hi - 1
    pick_lo = np.abs(cum[lo] - targets) <= np.abs(cum[hi] - targets)
    inner = np.where(pick_lo, lo, hi)
    bounds = np.concatenate([[0], inner, [work.size]]).astype(np.int64)
    return np.maximum.accumulate(bounds)


@dataclass
class DomainDecomposition:
    """Result of splitting a particle set across processors."""

    boundaries: np.ndarray  # (P+1,) indices into the Morton-sorted arrays
    order: np.ndarray  # Morton sort permutation of the input
    keys: np.ndarray  # sorted keys
    work: np.ndarray  # sorted per-particle work

    @property
    def n_pieces(self) -> int:
        return self.boundaries.size - 1

    def owner_of(self, sorted_index: np.ndarray | int) -> np.ndarray | int:
        """Which piece a Morton-sorted particle index belongs to."""
        return np.searchsorted(self.boundaries, sorted_index, side="right") - 1

    def piece(self, p: int) -> slice:
        if not 0 <= p < self.n_pieces:
            raise ValueError(f"piece {p} out of range")
        return slice(int(self.boundaries[p]), int(self.boundaries[p + 1]))

    def counts(self) -> np.ndarray:
        return np.diff(self.boundaries)

    def work_shares(self) -> np.ndarray:
        """Per-piece work divided by the ideal equal share."""
        cum = np.concatenate([[0.0], np.cumsum(self.work)])
        per = cum[self.boundaries[1:]] - cum[self.boundaries[:-1]]
        total = self.work.sum()
        if total == 0:
            return np.ones(self.n_pieces)
        return per / (total / self.n_pieces)


def decompose(
    positions: np.ndarray,
    work: np.ndarray | None = None,
    *,
    n_pieces: int,
    box: BoundingBox | None = None,
) -> DomainDecomposition:
    """Morton-sort particles and split them into work-balanced pieces.

    ``work`` defaults to uniform (pure count balancing); in production
    runs the treecode feeds back the previous step's interaction counts,
    as the original HOT code does.
    """
    positions = np.asarray(positions, dtype=np.float64)
    n = positions.shape[0]
    if work is None:
        work = np.ones(n)
    else:
        work = np.asarray(work, dtype=np.float64)
        if work.shape != (n,):
            raise ValueError("work must have shape (N,)")
    keys = keys_from_positions(positions, box)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    sorted_work = work[order]
    boundaries = split_weighted(sorted_work, n_pieces)
    return DomainDecomposition(boundaries, order, sorted_keys, sorted_work)


def key_sort(keys: np.ndarray, *columns: np.ndarray) -> tuple[np.ndarray, ...]:
    """``keys`` and every column reordered by a stable sort on ``keys``."""
    order = np.argsort(keys, kind="stable")
    return (keys[order], *(c[order] for c in columns))


def sample_splitters(sorted_keys: np.ndarray, n_pieces: int, oversample: int = 32) -> np.ndarray:
    """This rank's splitter sample: evenly spaced picks from its sorted keys.

    Each rank calls this on its local (sorted) keys; allgathering the
    samples and handing them to :func:`pick_splitters` yields global
    splitter keys without moving the full particle set — the classic
    sample-sort construction.  At most ``n_pieces * oversample`` keys
    are drawn, deterministically, so SimMPI replays are bit-identical.
    """
    n = sorted_keys.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    k = min(n, oversample * n_pieces)
    return sorted_keys[np.linspace(0, n - 1, k).astype(np.int64)]


def pick_splitters(samples: Sequence[np.ndarray], n_pieces: int) -> tuple[int, ...]:
    """Agreed key-space boundaries from every rank's :func:`sample_splitters`.

    Returns the length ``n_pieces + 1`` monotone tuple
    ``(MIN_PKEY, s_1, …, END_PKEY)`` of Python ints; piece ``p`` owns
    keys in ``[s_p, s_{p+1})``.  Duplicate samples give empty ranges.

    >>> keys = np.array([MIN_PKEY + k for k in (5, 1, 9, 3)], dtype=np.uint64)
    >>> [s - MIN_PKEY for s in pick_splitters([keys[:2], keys[2:]], 2)[:-1]]
    [0, 5]
    """
    merged = np.sort(np.concatenate(samples))
    if merged.size == 0:
        raise ValueError("no particles anywhere")
    picks = merged[(np.arange(1, n_pieces) * merged.size) // n_pieces]
    inner = np.maximum.accumulate(np.maximum(picks, np.uint64(MIN_PKEY)))
    return (MIN_PKEY, *inner.tolist(), END_PKEY)


def splitter_cuts(splitters: Sequence[int]) -> np.ndarray:
    """The interior splitters as one read-only uint64 array, what
    :func:`piece_bounds` and an owner lookup search: ``s_1 … s_{P-1}``,
    an end sentinel among them clamped to the last key."""
    cuts = np.minimum(np.array(splitters[1:-1], dtype=object), END_PKEY - 1).astype(np.uint64)
    cuts.flags.writeable = False
    return cuts


def piece_bounds(sorted_keys: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Indices cutting ``sorted_keys`` at the :func:`splitter_cuts`:
    piece ``p`` of a rank's sorted particles is ``[b[p], b[p+1])``,
    bound for rank ``p``."""
    inner = np.searchsorted(sorted_keys, cuts, side="left")
    return np.concatenate([[0], inner, [sorted_keys.shape[0]]]).astype(np.int64)


def splitter_candidates(
    local_keys: np.ndarray,
    local_work: np.ndarray,
    work_before: float,
    total: float,
    n_pieces: int,
) -> dict[int, int]:
    """Splitter keys this rank proposes for incremental rebalancing.

    Incremental, work-weighted rebalancing (paper §4.2): instead of
    re-running the full sample sort every step, each rank measures the
    work its particles actually cost last step and moves the existing
    domain boundaries to re-equalize it.  Boundary ``b`` of an
    ``n_pieces``-way split belongs at global cumulative work
    ``b * total / n_pieces``; the rank whose work range contains that
    target proposes the Morton key to cut at.

    Parameters
    ----------
    local_keys, local_work:
        This rank's particle keys (globally Morton-sorted across ranks)
        and their measured per-particle work (arbitrary units, e.g.
        interaction counts).
    work_before:
        Sum of all lower-ranked processors' work (an exclusive scan of
        the per-rank totals).
    total:
        Global work sum.  Zero/non-positive totals propose nothing —
        callers keep the old splitters (degenerate case mirrors
        :func:`split_weighted`).
    n_pieces:
        Number of domains (interior boundaries are ``1 .. n_pieces-1``).

    Returns
    -------
    Mapping of boundary index → proposed splitter key.  A proposed key
    ``k`` means "particles with key >= k start piece ``b``"; cut points
    round to the nearest particle edge, and each target is claimed by
    exactly one rank (targets on a rank seam go to the higher rank).

    >>> keys = np.array([10, 20, 30, 40], dtype=np.uint64)
    >>> splitter_candidates(keys, np.array([1.0, 1, 1, 1]), 0.0, 4.0, 2)
    {1: 21}
    """
    local_keys = np.asarray(local_keys, dtype=np.uint64)
    local_work = np.asarray(local_work, dtype=np.float64)
    out: dict[int, int] = {}
    if total <= 0 or local_keys.size == 0:
        return out
    cum = np.cumsum(local_work)
    local_total = float(cum[-1])
    for b in range(1, n_pieces):
        t = total * b / n_pieces - work_before
        if t <= 0 or t > local_total:
            continue
        j = int(np.searchsorted(cum, t, side="left"))
        below = float(cum[j - 1]) if j > 0 else 0.0
        n_left = j + 1 if abs(float(cum[j]) - t) <= abs(t - below) else j
        if n_left == 0:
            out[b] = int(local_keys[0])
        else:
            out[b] = int(local_keys[n_left - 1]) + 1
    return out


def merge_splitter_candidates(
    old_splitters: Sequence[int], proposals: Sequence[dict[int, int]]
) -> tuple[int, ...]:
    """Combine per-rank proposals into a full monotone splitter list.

    ``old_splitters`` is the current length-``P+1`` list (sentinels at
    both ends are kept verbatim); ``proposals`` holds every rank's
    :func:`splitter_candidates` result.  Boundaries nobody proposed
    keep their old key; the merged list is forced non-decreasing so a
    pathological proposal can never invert two domains.

    >>> merge_splitter_candidates([0, 25, 50, 100], [{1: 31}, {}])
    (0, 31, 50, 100)
    >>> merge_splitter_candidates([0, 25, 50, 100], [{1: 60}])  # 50 clamps up
    (0, 60, 60, 100)
    """
    new = list(old_splitters)
    for prop in filter(None, proposals):
        for b, key in prop.items():
            if 0 < b < len(new) - 1:
                new[b] = int(key)
    return tuple(accumulate(new, max))


def morton_traversal_order_2d(positions: np.ndarray, box: BoundingBox | None = None) -> np.ndarray:
    """Indices ordering 2-D points along the self-similar Morton curve.

    Connecting the points in this order draws the left panel of
    Figure 6; splitting the order into equal-work runs shows the
    processor domains.
    """
    keys = keys_from_positions_2d(positions, box)
    return np.argsort(keys, kind="stable")
