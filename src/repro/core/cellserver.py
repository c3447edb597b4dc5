"""Serving cell data out of the global key namespace.

In the hashed oct-tree, any processor can name any cell of the global
tree by its Morton key.  A processor that *owns* a contiguous key range
can answer queries about every cell whose key interval lies inside that
range — mass, center of mass, quadrupole, children, or (for leaves) the
particles themselves.  :class:`CellServer` implements that service with
prefix sums over the Morton-sorted local particles: any cell is a
contiguous run, so its record is O(log N) searchsorted plus O(1)
arithmetic, with no explicit tree stored at all.
:meth:`CellServer.subtree` is the bulk form, a tree level at a time,
and the one cell builder of the package: a rank's own cells, and from
the root key the whole serial tree of :func:`~repro.core.tree.build_tree`.

This is the data-plane half of the paper's "request and receive data
from other processors using the global key name space"; the control
plane (batching, deferral) lives in :mod:`repro.core.abm` and
:mod:`repro.core.parallel`.

Also here: :func:`cover_interval`, the minimal aligned-cell cover of a
key interval, which yields each processor's **branch cells** (the
coarsest cells fully owned by one processor), and
:func:`shift_quadrupole`, the parallel-axis combination used to
aggregate branch multipoles into the shared top of the tree.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .celltable import CellBatch, row_norms
from .keys import KEY_BITS, MAX_LEVEL, BoundingBox, _undilate3, cell_center_and_size, key_level

__all__ = [
    "CellRecord",
    "CellServer",
    "content_fingerprint",
    "cover_interval",
    "key_interval",
    "key_levels",
    "key_spans",
    "occupied_cover",
    "shift_quadrupole",
    "combine_records",
]

_PLACEHOLDER = 1 << (3 * KEY_BITS)

#: The packed symmetric pairs ``(xx, yy, zz, xy, xz, yz)`` as column indices.
_A, _B = [0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]


def content_fingerprint(chunks, digest_size: int = 16) -> bytes:
    """Content-addressed digest of an ordered sequence of byte chunks.

    The repo-wide fingerprint primitive (blake2b, 16 bytes by default):
    equal content yields equal digests in every process — unlike
    ``hash()``, there is no per-process randomization — so a fingerprint
    can name work across restarts.  :meth:`CellServer.branch_fingerprint`
    applies it to a branch cell's particle data for cache invalidation;
    :func:`repro.campaign.fingerprint.scenario_fingerprint` computes the
    same digest of canonical scenario JSON (with :mod:`hashlib` alone,
    so the campaign layer loads no numpy), so identical simulation
    requests dedupe to cache hits.

    Only the concatenated content matters, not the chunk boundaries —
    callers that need boundary sensitivity (none today) must frame
    their chunks explicitly.

    >>> content_fingerprint([b"ab", b"c"]) == content_fingerprint([b"abc"])
    True
    >>> content_fingerprint([b"abc"]) == content_fingerprint([b"abd"])
    False
    """
    h = hashlib.blake2b(digest_size=digest_size)
    for chunk in chunks:
        h.update(chunk)
    return h.digest()


def key_interval(key: int) -> tuple[int, int]:
    """Particle-key interval [lo, hi) covered by a cell key."""
    level = key_level(key)
    width = 3 * (MAX_LEVEL - level)
    body = (key - (1 << (3 * level))) << width
    return body + _PLACEHOLDER, body + (1 << width) + _PLACEHOLDER


def key_levels(keys: np.ndarray) -> np.ndarray:
    """Tree level of every key of a uint64 array."""
    # frexp's exponent is the bit length; a key that rounds up to the
    # next power of two on its way to float64 stays within its level's
    # three bits.
    return (np.frexp(keys.astype(np.float64))[1] - 1) // 3


def key_spans(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last particle key under every cell key of an array.

    The vector :func:`key_interval`, with the last key *inclusive*: the
    exclusive end of the root's interval, ``2**64``, is not a uint64.
    """
    keys = np.ascontiguousarray(keys, dtype=np.uint64)
    width = (3 * (MAX_LEVEL - key_levels(keys))).astype(np.uint64)
    lo = keys << width
    return lo, lo + ((np.uint64(1) << width) - np.uint64(1))


def cover_interval(lo: int, hi: int) -> list[int]:
    """Minimal set of aligned cell keys exactly covering [lo, hi).

    ``lo``/``hi`` are particle-level keys (placeholder bit set); the
    result is ordered by key interval.  This is the branch-cell
    computation: applied to a processor's key range it yields the
    coarsest cells that are entirely local to that processor.
    """
    if not (_PLACEHOLDER <= lo <= hi <= 2 * _PLACEHOLDER):
        raise ValueError("interval must lie in particle-key space")
    cells: list[int] = []
    cur = lo - _PLACEHOLDER
    end = hi - _PLACEHOLDER
    while cur < end:
        # The block at ``cur`` is the largest power of eight that both
        # divides ``cur`` (alignment) and fits in what is left.
        aligned = ((cur & -cur).bit_length() - 1) // 3 if cur else MAX_LEVEL
        up = min(aligned, ((end - cur).bit_length() - 1) // 3, MAX_LEVEL)
        cells.append((cur >> (3 * up)) + (1 << (3 * (MAX_LEVEL - up))))
        cur += 1 << (3 * up)
    return cells


def occupied_cover(sorted_keys: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The cells of ``cover_interval(lo, hi)`` that hold at least one of
    ``sorted_keys``, in the same order, as a uint64 array.

    A rank's branch cells without the walk over the whole cover (a
    hundred-odd cells for a range that two particles occupy): the cover
    cell of a key is the largest aligned cell around it inside
    ``[lo, hi)``, and a cell of level ``MAX_LEVEL - u`` starts at or
    after ``lo`` exactly when the key differs from ``lo - 1`` in a bit
    at ``3u`` or above (ends by ``hi``: differs from ``hi``), so one
    vector expression over the keys in range finds it.

    >>> lo, hi = _PLACEHOLDER + 3, _PLACEHOLDER + 70
    >>> cover = cover_interval(lo, hi)   # 5 single keys, 7 cells of 8, 6 single keys
    >>> len(cover)
    18
    >>> keys = np.array([_PLACEHOLDER + k for k in (0, 4, 20, 23, 69)], dtype=np.uint64)
    >>> occupied_cover(keys, lo, hi).tolist() == [cover[1], cover[6], cover[17]]
    True
    """
    if not (_PLACEHOLDER <= lo <= hi <= 2 * _PLACEHOLDER):
        raise ValueError("interval must lie in particle-key space")
    if lo == hi:
        return np.empty(0, dtype=np.uint64)
    first = int(np.searchsorted(sorted_keys, np.uint64(lo)))
    last = (sorted_keys.shape[0] if hi == 2 * _PLACEHOLDER
            else int(np.searchsorted(sorted_keys, np.uint64(hi))))
    c = sorted_keys[first:last] - np.uint64(_PLACEHOLDER)
    # lo - 1 is all ones below the first key; the level of the largest
    # cell is at most 63 // 3 = MAX_LEVEL.
    differ = c ^ np.array([[(lo - _PLACEHOLDER - 1) % (1 << 64)], [hi - _PLACEHOLDER]],
                          dtype=np.uint64)
    # The highest differing bit, exactly: float64 may round up to the
    # next power of two, never further.
    msb = np.frexp(differ.astype(np.float64))[1] - 1
    msb -= (differ >> msb.astype(np.uint64)) == 0
    shift = np.uint64(3) * (msb.min(axis=0) // 3).astype(np.uint64)
    cells = (c >> shift) + (np.uint64(1) << (np.uint64(3 * MAX_LEVEL) - shift))
    fresh = np.ones(cells.shape, dtype=bool)
    fresh[1:] = cells[1:] != cells[:-1]
    return cells[fresh]


def shift_quadrupole(quad: np.ndarray, mass: float, d: np.ndarray) -> np.ndarray:
    """Parallel-axis shift of a packed traceless quadrupole.

    Moving the expansion center by ``-d`` (child COM minus parent COM)
    adds ``m (3 d d^T - |d|^2 I)``; the result stays traceless.
    """
    d2 = float(d @ d)
    out = quad.copy()
    out[0] += mass * (3.0 * d[0] * d[0] - d2)
    out[1] += mass * (3.0 * d[1] * d[1] - d2)
    out[2] += mass * (3.0 * d[2] * d[2] - d2)
    out[3] += mass * 3.0 * d[0] * d[1]
    out[4] += mass * 3.0 * d[0] * d[2]
    out[5] += mass * 3.0 * d[1] * d[2]
    return out


@dataclass
class CellRecord:
    """Everything a remote traversal needs to know about one cell."""

    key: int
    count: int
    mass: float
    com: np.ndarray  # (3,)
    quad: np.ndarray  # (6,) packed traceless
    bmax: float
    is_leaf: bool
    children: tuple[int, ...] = ()  # child keys (internal cells only)
    # Leaf payload (filled when served with particles).
    positions: np.ndarray | None = None
    masses: np.ndarray | None = None


def combine_records(key: int, children: list[CellRecord]) -> CellRecord:
    """Aggregate child records into their parent's record.

    Used to build the shared top of the global tree from the gathered
    branch cells of all processors.
    """
    if not children:
        raise ValueError("cannot combine zero children")
    mass = sum(c.mass for c in children)
    count = sum(c.count for c in children)
    if mass > 0:
        com = sum(c.mass * c.com for c in children) / mass
    else:
        com = children[0].com.copy()
    quad = np.zeros(6)
    bmax = 0.0
    for c in children:
        d = c.com - com
        quad += shift_quadrupole(c.quad, c.mass, d)
        bmax = max(bmax, float(np.linalg.norm(d)) + c.bmax)
    return CellRecord(
        key=key,
        count=count,
        mass=mass,
        com=np.asarray(com, dtype=np.float64),
        quad=quad,
        bmax=bmax,
        is_leaf=False,
        children=tuple(sorted(c.key for c in children)),
    )


class CellServer:
    """Answers cell queries for one processor's Morton-sorted particles.

    Parameters
    ----------
    keys, positions, masses:
        The local particle set, already sorted by ``keys``.
    box:
        The *global* bounding box (all processors must agree on it, or
        keys would not form a common namespace).
    bucket_size:
        Cells with at most this many particles are leaves.  Because the
        rule depends only on global cell content, every processor
        derives the same virtual global tree.
    """

    def __init__(
        self,
        keys: np.ndarray,
        positions: np.ndarray,
        masses: np.ndarray,
        box: BoundingBox,
        bucket_size: int = 32,
    ):
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        if keys.size > 1 and np.any(keys[1:] < keys[:-1]):
            raise ValueError("keys must be sorted")
        if bucket_size < 1:
            raise ValueError("bucket_size must be >= 1")
        self.keys = keys
        self.positions = np.ascontiguousarray(positions, dtype=np.float64)
        self.masses = np.ascontiguousarray(masses, dtype=np.float64)
        self.box = box
        self.bucket_size = bucket_size
        n = keys.shape[0]
        self._cm = np.zeros(n + 1)
        np.cumsum(self.masses, out=self._cm[1:])
        self._cmx = np.zeros((n + 1, 3))
        np.cumsum(self.masses[:, None] * self.positions, axis=0, out=self._cmx[1:])
        self._cs = np.zeros((n + 1, 6))
        np.cumsum(self.masses[:, None] * self.positions[:, _A] * self.positions[:, _B], axis=0,
                  out=self._cs[1:])
        self._grid = None  # the particles' integer coordinates, on first use by ``subtree``

    @property
    def n_particles(self) -> int:
        return self.keys.shape[0]

    def run_of(self, key: int) -> tuple[int, int]:
        """Local particle run [s, e) of a cell key."""
        lo, hi = key_interval(key)
        s = int(np.searchsorted(self.keys, np.uint64(lo), side="left"))
        e = int(np.searchsorted(self.keys, np.uint64(hi - 1), side="right"))
        return s, e

    def branch_fingerprint(self, key: int) -> bytes:
        """Digest of the particle data inside cell ``key``.

        Hashes the Morton keys, positions, and masses of the cell's
        local run plus the server's prefix-sum state at the run start
        (16 bytes, blake2b).  :meth:`record` values are *differences of
        prefix sums*, so they depend on the accumulated floating-point
        prefix as well as the run itself; including both makes an
        unchanged fingerprint a proof that every record under this
        branch is bit-identical to the one a fresh fetch would return
        (assuming the global box and ``bucket_size`` are unchanged).
        The rank program compares it between steps to decide which
        fetched rows of a :class:`~repro.core.celltable.CellTable`
        carry over (``branch`` column).
        """
        s, e = self.run_of(key)
        return content_fingerprint([
            np.ascontiguousarray(self.keys[s:e]).tobytes(),
            np.ascontiguousarray(self.positions[s:e]).tobytes(),
            np.ascontiguousarray(self.masses[s:e]).tobytes(),
            self._cm[s : s + 1].tobytes(),
            np.ascontiguousarray(self._cmx[s : s + 1]).tobytes(),
            np.ascontiguousarray(self._cs[s : s + 1]).tobytes(),
        ])

    def record(self, key: int, *, with_particles: bool | None = None) -> CellRecord:
        """Full cell record; empty cells yield ``count == 0`` records.

        ``with_particles`` defaults to "yes if leaf" (what a remote
        requester needs); pass False to suppress the payload.
        """
        s, e = self.run_of(key)
        count = e - s
        level = key_level(key)
        if count == 0:
            return CellRecord(key, 0, 0.0, np.zeros(3), np.zeros(6), 0.0, True)
        mass = float(self._cm[e] - self._cm[s])
        mx = self._cmx[e] - self._cmx[s]
        raw2 = self._cs[e] - self._cs[s]
        com = mx / mass if mass > 0 else self.positions[s].copy()
        quad = np.empty(6)
        quad[0] = raw2[0] - mass * com[0] * com[0]
        quad[1] = raw2[1] - mass * com[1] * com[1]
        quad[2] = raw2[2] - mass * com[2] * com[2]
        quad[3] = raw2[3] - mass * com[0] * com[1]
        quad[4] = raw2[4] - mass * com[0] * com[2]
        quad[5] = raw2[5] - mass * com[1] * com[2]
        trace = quad[0] + quad[1] + quad[2]
        quad[:3] = 3.0 * quad[:3] - trace
        quad[3:] *= 3.0
        center, size = cell_center_and_size(key, self.box)
        bmax = float(np.sqrt(3.0) / 2.0 * size + np.linalg.norm(com - center))
        is_leaf = count <= self.bucket_size or level >= MAX_LEVEL
        children: tuple[int, ...] = ()
        if not is_leaf:
            kids = []
            for octant in range(8):
                ck = (key << 3) | octant
                cs_, ce_ = self.run_of(ck)
                if ce_ > cs_:
                    kids.append(ck)
            children = tuple(kids)
        rec = CellRecord(key, count, mass, com, quad, bmax, is_leaf, children)
        if with_particles is None:
            with_particles = is_leaf
        if with_particles and is_leaf:
            rec.positions = self.positions[s:e].copy()
            rec.masses = self.masses[s:e].copy()
        return rec

    def _runs(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lo, last = key_spans(keys)
        return (np.searchsorted(self.keys, lo, side="left"),
                np.searchsorted(self.keys, last, side="right"))

    def subtree(self, roots) -> CellBatch:
        """Every non-empty cell at or below ``roots``, as columns.

        The bulk form of :meth:`record`: row for row the same numbers,
        bit for bit, computed a tree level at a time (the non-empty
        roots first, in the order given, then their children level by
        level, each level in the order of its parents).  A leaf's
        particles are its run ``pstart``/``pn`` of this server's own
        arrays, which the batch carries as its pool without copying
        them.  This is the one place a cell's moments are computed from
        its particles; the serial :func:`~repro.core.tree.build_tree`
        is this from the root key.

        Every moment is a difference of prefix sums over the cell's
        run.  The quadrupole is the traceless one about the centre of
        mass, packed in symmetric order ``(xx, yy, zz, xy, xz, yz)``:

        .. math::

            Q_{ij} = \\sum_k m_k \\left(3\\, r_{k,i} r_{k,j} - r_k^2\\,
            \\delta_{ij}\\right), \\qquad r_k = x_k - X_\\mathrm{com}

        ``bmax`` is a conservative bound on the distance from the centre
        of mass to any particle of the cell: the cell's half-diagonal
        plus the centre of mass's offset from the cell's geometric
        centre (taken from the cell key), which the multipole
        acceptance criterion uses.  A massless cell's centre of mass is
        its first particle.
        """
        if self._grid is None:
            self._grid = _undilate3(self.keys >> np.arange(3, dtype=np.uint64)[:, None]).T
        keys = np.ascontiguousarray(roots, dtype=np.uint64)
        s, e = self._runs(keys)
        levels: list[dict[str, np.ndarray]] = []
        while keys.size:
            live = e > s
            keys, s, e = keys[live], s[live], e[live]
            if not keys.size:  # only roots can all be empty: a parent has a child
                break
            level = key_levels(keys)
            mass = self._cm[e] - self._cm[s]
            com = self.positions[s]
            np.divide(self._cmx[e] - self._cmx[s], mass[:, None], out=com,
                      where=(mass > 0)[:, None])
            quad = self._cs[e] - self._cs[s] - mass[:, None] * com[:, _A] * com[:, _B]
            trace = quad[:, 0] + quad[:, 1] + quad[:, 2]
            quad[:, :3] = 3.0 * quad[:, :3] - trace[:, None]
            quad[:, 3:] *= 3.0
            # A cell's integer corner: any of its particles' coordinates,
            # cut to the cell's level.
            cell = self._grid[s] >> (KEY_BITS - level).astype(np.uint64)[:, None]
            size = self.box.size / (np.uint64(1) << level.astype(np.uint64)).astype(np.float64)
            center = self.box.corner + (cell.astype(np.float64) + 0.5) * size[:, None]
            leaf = (e - s <= self.bucket_size) | (level >= MAX_LEVEL)
            kids = ((keys[~leaf] << np.uint64(3))[:, None] | np.arange(8, dtype=np.uint64)).ravel()
            ks, ke = self._runs(kids) if kids.size else (s[:0], e[:0])
            cn = np.zeros(keys.size, dtype=np.int64)
            cn[~leaf] = (ke > ks).reshape(-1, 8).sum(axis=1)
            levels.append(dict(
                key=keys, count=e - s, mass=mass, com=com, quad=quad,
                bmax=np.sqrt(3.0) / 2.0 * size + row_norms(com - center), leaf=leaf, cn=cn,
                pstart=s, pn=np.where(leaf, e - s, 0), child_key=kids[ke > ks],
            ))
            keys, s, e = kids, ks, ke
        if not levels:
            return CellBatch.empty()
        cols = levels[0] if len(levels) == 1 else {
            name: np.concatenate([lv[name] for lv in levels]) for name in levels[0]}
        return CellBatch(cstart=np.cumsum(cols["cn"]) - cols["cn"], ppos=self.positions,
                         pmass=self.masses, **cols)

    def leaf_groups(self, branch_keys: list[int]) -> list[tuple[int, int, int]]:
        """Virtual-tree leaves under the given branch cells.

        Returns ``(key, start, end)`` runs covering every local
        particle exactly once — the sink groups of the parallel
        traversal.
        """
        cells = self.subtree(branch_keys)
        leaves = np.flatnonzero(cells.leaf)
        leaves = leaves[np.argsort(cells.pstart[leaves], kind="stable")]
        return list(zip(cells.key[leaves].tolist(), cells.pstart[leaves].tolist(),
                        (cells.pstart[leaves] + cells.pn[leaves]).tolist()))
