"""Kernel backends for the gravity/SPH hot loops.

The treecode's value lives in its vectorizable inner loops — the
38-flop gravity interaction kernel of Table 5 is what a decade of
processors is measured against.  This module puts those inner loops
behind one interface, with one arithmetic: :class:`NumpyBackend`, dense
vectorized kernels identical in arithmetic to the historical per-group
walker.  The kernels are plain arithmetic on the calling thread: the
threads of a force evaluation are :mod:`repro.core.traversal`'s, which
cuts the work into runs above the kernels (see below).

Selection: every hot-path entry point takes ``backend=``, a
:class:`KernelBackend` instance; the default, ``None``, is one shared
:class:`NumpyBackend` (:func:`get_backend`).  Every backend must
satisfy the differential-physics suite
(``tests/test_backend_differential.py``): accelerations within tight
bounds of direct summation at every MAC setting, and
:class:`~repro.core.traversal.InteractionCounts` identical across
backends — the counts are a property of the traversal, never of the
kernel that evaluates it.

Interface (all arrays float64, C-contiguous; ``acc``/``pot`` are
accumulated in place):

* ``eval_cells_dense(sinks, com, mass, quad, eps2, G)`` — monopole +
  quadrupole field of a cell list at a dense block of sinks; returns
  ``(acc, pot)``.  Used by the per-group deferral walker in
  :mod:`repro.core.parallel`.
* ``eval_direct_dense(sinks, src_pos, src_mass, eps2, G)`` —
  Plummer-softened direct sum for a dense block; zero-distance
  unsoftened pairs contribute nothing.
* ``eval_cell_rects(pos3, starts, counts, offsets, cell_ids, com3,
  mass, quad6, eps2, G, acc, pot, pair_chunk)`` — evaluate flat CSR
  interaction *rectangles*: rectangle ``r`` is the contiguous sink
  run ``starts[r] : starts[r] + counts[r]`` against the cell list
  ``cell_ids[offsets[r]:offsets[r+1]]``.  Every sink belongs to at
  most one rectangle per call, so backends may reduce per sink
  without atomics.  Positions/centres arrive *component-major*
  (``pos3`` is ``(3, N)``, ``com3`` is ``(3, n_cells)``, ``quad6``
  is ``(6, n_cells)``, each row C-contiguous) so kernel steps are
  contiguous operations — the strided column access of an ``(N,
  3)`` layout is what makes vectorized pair kernels memory-bound.
  ``pair_chunk`` bounds the expanded (sink, source) pairs held live
  at once.
* ``eval_direct_rects(pos3, masses, starts, counts, offsets,
  src_ids, eps2, G, acc, pot, pair_chunk)`` — the same rectangle
  shape for flat (sink particle, source particle) lists.
* ``segment_sum(values, offsets)`` — CSR segment reduction (the SPH
  gather sum); empty segments produce exact zeros.
* ``scatter_add(target, idx, values)`` — unordered scatter-add (the
  SPH pairwise force accumulation).
* ``bincount_sum(idx, weights, minlength)`` — weighted bincount that
  accumulates **in input order** (the contract the CIC deposit and the
  histogram binners rely on for bit-identity with their references;
  ``weights=None`` counts into int64).
* ``scatter_min(target, idx, values)`` — unordered scatter-minimum
  (the FoF hook step; minimum is order-independent, so it needs no
  ordering contract).
* ``pair_within(pos, i_idx, j_idx, r2)`` — boolean mask of index
  pairs with squared separation ``<= r2`` (the SPH neighbor distance
  filter; pure comparisons, exact on every backend).

A rectangle call of :class:`NumpyBackend` plans its chunks first
(rectangles binned by padded width, each bin cut into chunks of at most
``pair_chunk`` padded pairs) and allocates one flat float64 workspace:
room for the kernel's live ``(rows, width)`` arrays, 12 for the cell
kernel and 6 for the direct one, at its largest chunk.  Every chunk
carves its arrays out of it and every step writes into them with
``out=``, so no chunk allocates an array of that shape, which the OS
would page in afresh on first touch, chunk after chunk (10-19 k minor
faults per ``nbody_compute`` operation).  The workspace dies with the
call: concurrent calls (one per run of a split evaluation) share
nothing, and nothing holds one after its call returns.

``NumpyBackend(threads=)`` is the number of threads one force
evaluation may use, ``1`` meaning inline everywhere.  The evaluators of
:mod:`repro.core.traversal` read it: a large evaluation is cut into
runs of rectangles (or of sink groups, walked per run), one per thread,
each evaluated by plain calls of these kernels.  That is exact because
each rectangle's per-sink result is independent of how rectangles are
batched (padding is a function of the rectangle's own width only) and
sinks are disjoint across rectangles.  A backend with a ``threads``
attribute above 1 must therefore take concurrent rectangle calls over
disjoint sinks of one ``acc``/``pot``; one without it (a wrapper such
as a timing proxy) is evaluated inline.
"""

from __future__ import annotations

import numpy as np

from .procpool import resolve_pool_workers

__all__ = [
    "KernelBackend",
    "NumpyBackend",
    "get_backend",
]


class KernelBackend:
    """Abstract kernel backend; concrete backends override everything."""

    name = "abstract"

    # -- dense per-group kernels ----------------------------------------
    def eval_cells_dense(self, sinks, com, mass, quad, eps2, G):
        raise NotImplementedError

    def eval_direct_dense(self, sinks, src_pos, src_mass, eps2, G):
        raise NotImplementedError

    # -- flat CSR rectangle kernels -------------------------------------
    def eval_cell_rects(self, pos3, starts, counts, offsets, cell_ids, com3, mass, quad6, eps2, G, acc, pot, pair_chunk):
        raise NotImplementedError

    def eval_direct_rects(self, pos3, masses, starts, counts, offsets, src_ids, eps2, G, acc, pot, pair_chunk):
        raise NotImplementedError

    # -- reductions ------------------------------------------------------
    def segment_sum(self, values, offsets):
        raise NotImplementedError

    def scatter_add(self, target, idx, values):
        raise NotImplementedError

    def bincount_sum(self, idx, weights=None, minlength=0):
        raise NotImplementedError

    def scatter_min(self, target, idx, values):
        raise NotImplementedError

    def pair_within(self, pos, i_idx, j_idx, r2):
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def _pad_bins(widths: np.ndarray):
    """Group rectangles of similar source-list width into padded bins.

    Yields ``(sel, W)``: rectangle indices whose lists, padded to the
    common width ``W``, waste at most 1/8 of the evaluated pairs.
    Gathering source data once per (rectangle, source) and broadcasting
    over the rectangle's sinks turns the hot loops into dense 2-D
    kernels; the padding entries are made exact zeros by the caller.
    """
    live = widths > 0
    if not np.any(live):
        return
    idx = np.flatnonzero(live)
    wl = widths[idx]
    # pad step 2^(floor(log2 w) - 3): 8 bins per octave, <= 12.5% waste
    _, e = np.frexp(wl.astype(np.float64))
    step = np.left_shift(1, np.maximum(e - 4, 0))
    wpad = ((wl + step - 1) // step) * step
    for w in np.unique(wpad):
        yield idx[wpad == w], int(w)


def _rect_rows(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expand rectangle sink runs to (row -> rect, row -> particle)."""
    n_rows = int(counts.sum())
    local = np.arange(n_rows, dtype=np.int64)
    local -= np.repeat(np.cumsum(counts) - counts, counts)
    pids = np.repeat(starts, counts)
    pids += local
    return np.repeat(np.arange(counts.shape[0], dtype=np.int64), counts), pids


def _chunk_rects(counts: np.ndarray, width: int, pair_chunk: int):
    """Split rect indices into slices of <= pair_chunk padded pairs:
    ``(lo, hi, rows)``, ``rows`` the slice's sinks."""
    n = counts.shape[0]
    lo = 0
    budget = max(1, pair_chunk // max(width, 1))
    cum = np.concatenate([[0], np.cumsum(counts)])
    while lo < n:
        hi = int(np.searchsorted(cum, cum[lo] + budget, side="right")) - 1
        hi = min(max(hi, lo + 1), n)
        yield lo, hi, int(cum[hi] - cum[lo])
        lo = hi


def _plan(widths: np.ndarray, counts: np.ndarray, pair_chunk: int, k: int):
    """A rectangle call's chunks, ``[(sel, W, [(lo, hi, R), ...]), ...]``
    by padded bin, and its workspace: room for ``k`` ``(R, W)`` arrays
    of its largest chunk, which every chunk carves its arrays from."""
    bins = [(sel, W, list(_chunk_rects(counts[sel], W, pair_chunk)))
            for sel, W in _pad_bins(widths)]
    return bins, np.empty(k * max((R * W for _, W, ch in bins for _, _, R in ch), default=0))


def _padded(offsets, ids, widths, sub, col):
    """The sources of rectangles ``sub``, ``(n_sub, len(col))``: padded
    slots repeat the last real one; and the mask of the padded slots."""
    wv = widths[sub]
    return ids[offsets[sub][:, None] + np.minimum(col, wv[:, None] - 1)], col >= wv[:, None]


def _expand(src, rows, out):
    """``src[rows]``, written into ``out``: ``take`` with ``mode="clip"``
    gathers straight into it (the default ``"raise"`` buffers ``out``
    first, 3.5 times slower; the method skips ``np.take``'s dispatch)."""
    return src.take(rows, axis=0, out=out, mode="clip")


def _zeroed(col, ids, pad):
    """``col[ids]`` with the padded slots zeroed."""
    out = col[ids]
    out[pad] = 0.0
    return out


class NumpyBackend(KernelBackend):
    """Reference backend: dense vectorized NumPy kernels.

    ``threads`` is the number of threads one force evaluation may use
    (:mod:`repro.core.traversal` runs them): ``None`` means the usable
    cores (:func:`~repro.core.procpool.resolve_pool_workers`), ``1`` means inline.  The
    kernels themselves never start a thread.
    """

    name = "numpy"

    def __init__(self, threads: int | None = None):
        self.threads = resolve_pool_workers(threads)

    def eval_cells_dense(self, sinks, com, mass, quad, eps2, G):
        """Monopole + quadrupole field of cells at sink positions."""
        dr = sinks[:, None, :] - com[None, :, :]  # (ns, nc, 3)
        rs2 = np.einsum("ijk,ijk->ij", dr, dr) + eps2
        inv_r = 1.0 / np.sqrt(rs2)
        inv_r3 = inv_r / rs2
        inv_r5 = inv_r3 / rs2
        inv_r7 = inv_r5 / rs2

        acc = -(G * mass)[None, :, None] * dr * inv_r3[:, :, None]
        pot = -(G * mass)[None, :] * inv_r

        # Quadrupole: Qr vector and r.Qr scalar from packed symmetric Q.
        qxx, qyy, qzz, qxy, qxz, qyz = (quad[:, i] for i in range(6))
        qr = np.empty_like(dr)
        qr[:, :, 0] = qxx * dr[:, :, 0] + qxy * dr[:, :, 1] + qxz * dr[:, :, 2]
        qr[:, :, 1] = qxy * dr[:, :, 0] + qyy * dr[:, :, 1] + qyz * dr[:, :, 2]
        qr[:, :, 2] = qxz * dr[:, :, 0] + qyz * dr[:, :, 1] + qzz * dr[:, :, 2]
        rqr = np.einsum("ijk,ijk->ij", dr, qr)
        acc += G * (qr * inv_r5[:, :, None] - 2.5 * (rqr * inv_r7)[:, :, None] * dr)
        pot += -G * 0.5 * rqr * inv_r5
        return acc.sum(axis=1), pot.sum(axis=1)

    def eval_direct_dense(self, sinks, src_pos, src_mass, eps2, G):
        """Plummer-softened direct sum; zero-distance pairs contribute 0."""
        dr = sinks[:, None, :] - src_pos[None, :, :]
        r2 = np.einsum("ijk,ijk->ij", dr, dr)
        rs2 = r2 + eps2
        self_pair = rs2 == 0.0
        if np.any(self_pair):
            rs2 = np.where(self_pair, 1.0, rs2)
        inv_r = 1.0 / np.sqrt(rs2)
        inv_r3 = inv_r / rs2
        if eps2 == 0.0:
            # Unsoftened: exclude exact overlaps (self-interaction).
            zero = r2 == 0.0
            inv_r = np.where(zero, 0.0, inv_r)
            inv_r3 = np.where(zero, 0.0, inv_r3)
        elif np.any(self_pair):
            inv_r = np.where(self_pair, 0.0, inv_r)
            inv_r3 = np.where(self_pair, 0.0, inv_r3)
        acc = -(G * src_mass)[None, :, None] * dr * inv_r3[:, :, None]
        pot = -(G * src_mass)[None, :] * inv_r
        return acc.sum(axis=1), pot.sum(axis=1)

    def eval_cell_rects(self, pos3, starts, counts, offsets, cell_ids, com3, mass, quad6, eps2, G, acc, pot, pair_chunk):
        widths = np.diff(offsets)
        bins, ws = _plan(widths, counts, pair_chunk, 12)
        for sel, W, chunks in bins:
            # W can exceed widths.max() (it pads *up*), so build the
            # column index per bin: a rect's padded row length must be a
            # function of its own width only, or per-rect results would
            # depend on call composition through the reduction grouping.
            col = np.arange(W, dtype=np.int64)
            for lo, hi, R in chunks:
                sub = sel[lo:hi]
                # Gather per (rect, cell) once — amortized over the
                # rect's sinks.  Padded slots repeat the last real cell
                # with mass and quadrupole zeroed, so they contribute
                # exact zeros (an accepted cell is never at zero
                # distance: the MAC cannot accept one).
                cid, pad = _padded(offsets, cell_ids, widths, sub, col)
                gm = _zeroed(mass, cid, pad)
                if G != 1.0:
                    gm *= G
                qxx, qyy, qzz, qxy, qxz, qyz = quad6
                rows, pids = _rect_rows(starts[sub], counts[sub])
                # (R, W) dense arithmetic, all contiguous, every step
                # written into a view of the call's workspace: a fresh
                # (R, W) output costs a step several times over, as the
                # OS pages it in on first touch, chunk after chunk.
                dx, dy, dz, rs2, t, qxy2, qxz2, qyz2, qrx, qry, qrz, rqr = (
                    ws[:12 * R * W].reshape(12, R, W))
                for d, c, p in zip((dx, dy, dz), com3, pos3):
                    _expand(c[cid], rows, d)
                    np.subtract(p[pids][:, None], d, out=d)
                np.multiply(dx, dx, out=rs2)
                rs2 += np.multiply(dy, dy, out=t)
                rs2 += np.multiply(dz, dz, out=t)
                rs2 += eps2
                # Qr vector and r.Qr scalar from the packed symmetric Q;
                # the off-diagonal rows are each used twice, so expand
                # them to (R, W) once.
                for q, q2 in ((qxy, qxy2), (qxz, qxz2), (qyz, qyz2), (qxx, qrx)):
                    _expand(_zeroed(q, cid, pad), rows, q2)
                qrx *= dx
                qrx += np.multiply(qxy2, dy, out=t)
                qrx += np.multiply(qxz2, dz, out=t)
                np.multiply(qxy2, dx, out=qry)
                qry += np.multiply(_expand(_zeroed(qyy, cid, pad), rows, t), dy, out=t)
                qry += np.multiply(qyz2, dz, out=t)
                np.multiply(qxz2, dx, out=qrz)
                qrz += np.multiply(qyz2, dy, out=t)
                qrz += np.multiply(_expand(_zeroed(qzz, cid, pad), rows, t), dz, out=t)
                np.multiply(qrx, dx, out=rqr)
                rqr += np.multiply(qry, dy, out=t)
                rqr += np.multiply(qrz, dz, out=t)
                # The expanded quadrupole is spent: its room holds r^-1,3,5.
                inv_r, inv_r3, inv_r5 = qxy2, qxz2, qyz2
                np.sqrt(rs2, out=inv_r)
                np.divide(1.0, inv_r, out=inv_r)
                inv_r2 = np.divide(1.0, rs2, out=rs2)
                np.multiply(inv_r, inv_r2, out=inv_r3)
                np.multiply(inv_r3, inv_r2, out=inv_r5)
                inv_r7 = np.multiply(inv_r5, inv_r2, out=t)
                gm2 = _expand(gm, rows, rs2)
                # a = -(gm r^-3 + 2.5 G rqr r^-7) dr + G r^-5 Qr
                c1 = np.multiply(gm2, inv_r3, out=inv_r3)
                c2 = np.multiply(rqr, inv_r7, out=t)
                c2 *= 2.5 * G
                c1 += c2
                np.negative(c1, out=c1)
                if G != 1.0:
                    inv_r5 *= G
                qrx *= inv_r5
                qry *= inv_r5
                qrz *= inv_r5
                dx *= c1
                qrx += dx
                dy *= c1
                qry += dy
                dz *= c1
                qrz += dz
                # p = -gm r^-1 - 0.5 G rqr r^-5
                gm2 *= inv_r
                rqr *= inv_r5
                rqr *= 0.5
                gm2 += rqr
                acc[pids, 0] += qrx.sum(axis=1)
                acc[pids, 1] += qry.sum(axis=1)
                acc[pids, 2] += qrz.sum(axis=1)
                pot[pids] -= gm2.sum(axis=1)

    def eval_direct_rects(self, pos3, masses, starts, counts, offsets, src_ids, eps2, G, acc, pot, pair_chunk):
        widths = np.diff(offsets)
        bins, ws = _plan(widths, counts, pair_chunk, 6)
        for sel, W, chunks in bins:
            col = np.arange(W, dtype=np.int64)  # per bin: W can exceed widths.max()
            for lo, hi, R in chunks:
                sub = sel[lo:hi]
                # Padded slots repeat the last real source with mass
                # zeroed: exact zero contribution (the zero-distance
                # rule below covers an unsoftened coincident pad too).
                sid, pad = _padded(offsets, src_ids, widths, sub, col)
                gm = _zeroed(masses, sid, pad)
                if G != 1.0:
                    gm *= G
                rows, pids = _rect_rows(starts[sub], counts[sub])
                dx, dy, dz, rs2, t, inv_r = ws[:6 * R * W].reshape(6, R, W)
                for d, p in zip((dx, dy, dz), pos3):
                    _expand(p[sid], rows, d)
                    np.subtract(p[pids][:, None], d, out=d)
                np.multiply(dx, dx, out=rs2)
                rs2 += np.multiply(dy, dy, out=t)
                rs2 += np.multiply(dz, dz, out=t)
                rs2 += eps2
                # A pair at exactly zero softened distance is a
                # self-interaction (or an unsoftened coincidence): it
                # contributes nothing.  With eps2 > 0 the softened
                # radius is strictly positive everywhere.
                zero = None
                if eps2 == 0.0:
                    zero = rs2 == 0.0
                    if np.any(zero):
                        rs2[zero] = 1.0
                    else:
                        zero = None
                np.sqrt(rs2, out=inv_r)
                np.divide(1.0, inv_r, out=inv_r)
                inv_r3 = np.divide(inv_r, rs2, out=rs2)
                if zero is not None:
                    inv_r[zero] = 0.0
                    inv_r3[zero] = 0.0
                gm2 = _expand(gm, rows, t)
                c = np.multiply(gm2, inv_r3, out=inv_r3)
                dx *= c
                dy *= c
                dz *= c
                gm2 *= inv_r
                acc[pids, 0] -= dx.sum(axis=1)
                acc[pids, 1] -= dy.sum(axis=1)
                acc[pids, 2] -= dz.sum(axis=1)
                pot[pids] -= gm2.sum(axis=1)

    def segment_sum(self, values, offsets):
        values = np.asarray(values, dtype=np.float64)
        offsets = np.asarray(offsets, dtype=np.int64)
        nseg = offsets.shape[0] - 1
        out = np.zeros((nseg,) + values.shape[1:], dtype=np.float64)
        if nseg == 0 or values.shape[0] == 0:
            return out
        nonempty = offsets[:-1] < offsets[1:]
        if not np.any(nonempty):
            return out
        # Starts of the non-empty segments are strictly increasing, and
        # the gaps between them contain exactly the skipped (empty)
        # segments' zero elements — reduceat over them is exact.
        out[nonempty] = np.add.reduceat(values, offsets[:-1][nonempty], axis=0)
        return out

    def scatter_add(self, target, idx, values):
        np.add.at(target, idx, values)

    def bincount_sum(self, idx, weights=None, minlength=0):
        # np.bincount accumulates weights sequentially in input order,
        # the same order np.add.at applies them — the property the CIC
        # deposit's bit-identity with its reference rests on.
        return np.bincount(idx, weights=weights, minlength=minlength)

    def scatter_min(self, target, idx, values):
        np.minimum.at(target, idx, values)

    def pair_within(self, pos, i_idx, j_idx, r2):
        # take(axis=0) copies whole rows; pos[i_idx] is the general fancy gather.
        d = pos.take(i_idx, axis=0) - pos.take(j_idx, axis=0)
        return np.einsum("ij,ij->i", d, d) <= r2


# -- selection ----------------------------------------------------------


_SHARED = NumpyBackend()


def get_backend(backend: KernelBackend | None = None) -> KernelBackend:
    """The backend a call runs on: the shared :class:`NumpyBackend` for
    ``None``, else ``backend`` itself, which must be a
    :class:`KernelBackend` instance (anything else is a ``ValueError``
    naming it)."""
    if backend is None:
        return _SHARED
    if not isinstance(backend, KernelBackend):
        raise ValueError(f"not a kernel backend: {backend!r}")
    return backend
