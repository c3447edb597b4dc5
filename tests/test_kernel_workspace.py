"""A rectangle-kernel call computes in one workspace.

``NumpyBackend.eval_cell_rects`` and ``eval_direct_rects`` plan a
call's chunks first and allocate one flat buffer, room for each
kernel's live ``(rows, width)`` arrays at the call's largest chunk;
every chunk carves its arrays out of it and every step writes into
them.  So:

* a chunk smaller than an earlier one reads only what it wrote itself:
  one call over rectangles whose chunks grow and shrink equals one call
  per rectangle, bit for bit, inline and split over threads (each run
  of a split call has a workspace of its own);
* an evaluation's traced peak is that workspace plus what grows with
  ``N`` (the direct lists it builds, the pool's copies, the sums), not
  a chunk's worth of fresh temporaries on top of it.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import build_tree, traversal
from repro.core.backend import NumpyBackend, _chunk_rects, _pad_bins
from repro.core.traversal import RectJob, build_interaction_lists, evaluate_interaction_lists
from tests.test_backend_threads import SPLIT, split_at_any_size

INLINE = NumpyBackend(threads=1)

#: Live (rows, width) arrays of a chunk, at most: cell and direct kernel.
CELL_ARRAYS, DIRECT_ARRAYS = 12, 7


def _chunk_pairs(offsets, counts, pair_chunk) -> list[int]:
    """Padded pairs of every chunk of a rectangle call, in the order the
    kernels evaluate them."""
    return [R * W for sel, W in _pad_bins(np.diff(offsets))
            for _, _, R in _chunk_rects(counts[sel], W, pair_chunk)]


#: Rectangles as (count, width) runs, in the order they are listed:
#: wide single rectangles over the pair budget among many narrow ones.
SHAPES = ([(3, 2)] * 600 + [(5, 1000), (1, 64), (2, 200), (1, 1500), (2, 200)] + [(4, 5)] * 300
          + [(1, 0)])
PAIR_CHUNK = 2048


def _rects(seed: int, coincident: bool):
    rng = np.random.default_rng(seed)
    counts = np.array([c for c, _ in SHAPES], dtype=np.int64)
    widths = np.array([w for _, w in SHAPES], dtype=np.int64)
    starts = np.cumsum(counts) - counts
    n = int(counts.sum())
    pos = rng.random((n, 3))
    if coincident:
        pos = rng.random((5, 3))[rng.integers(0, 5, n)]
    n_cells = 700
    offsets = np.concatenate(([0], np.cumsum(widths)))
    return dict(
        starts=starts, counts=counts, offsets=offsets, pos=pos,
        masses=rng.uniform(0.5, 1.5, n) / n, src_ids=rng.integers(0, n, int(offsets[-1])),
        com=rng.random((n_cells, 3)) * 3.0 + 1.5, mass=rng.random(n_cells),
        quad=rng.standard_normal((n_cells, 6)) * 1e-3,
        cell_ids=rng.integers(0, n_cells, int(offsets[-1])))


def test_the_chunks_grow_and_shrink():
    r = _rects(0, False)
    pairs = _chunk_pairs(r["offsets"], r["counts"], PAIR_CHUNK)
    largest = pairs.index(max(pairs))
    assert max(pairs) > PAIR_CHUNK  # a rectangle over the budget is one chunk
    assert any(b < a for a, b in zip(pairs, pairs[1:]))
    assert largest < len(pairs) - 1  # smaller chunks follow the largest
    assert pairs[largest + 1] < pairs[largest]


def _call(kernel: str, r: dict, sel, eps2: float, G: float):
    """One kernel call over rectangles ``sel``; fresh ``acc``/``pot``."""
    n = r["pos"].shape[0]
    acc, pot = np.zeros((n, 3)), np.zeros(n)
    pos3 = np.ascontiguousarray(r["pos"].T)
    off = r["offsets"]
    lo, hi = off[sel[0]], off[sel[-1] + 1]
    offsets = off[sel[0]:sel[-1] + 2] - lo
    if kernel == "cells":
        INLINE.eval_cell_rects(pos3, r["starts"][sel], r["counts"][sel], offsets,
                               r["cell_ids"][lo:hi], np.ascontiguousarray(r["com"].T), r["mass"],
                               np.ascontiguousarray(r["quad"].T), eps2, G, acc, pot, PAIR_CHUNK)
    else:
        INLINE.eval_direct_rects(pos3, r["masses"], r["starts"][sel], r["counts"][sel], offsets,
                                 r["src_ids"][lo:hi], eps2, G, acc, pot, PAIR_CHUNK)
    return acc, pot


@pytest.mark.parametrize("kernel", ["cells", "direct"])
@pytest.mark.parametrize("eps2,G,coincident", [(0.0, 1.0, False), (1e-4, 1.0, False),
                                                 (1e-4, 2.5, False), (0.0, 2.5, True)])
def test_one_call_is_one_call_per_rectangle(kernel, eps2, G, coincident):
    r = _rects(1, coincident)
    everyone = np.arange(len(SHAPES))
    acc, pot = _call(kernel, r, everyone, eps2, G)
    for i in everyone:
        sinks = slice(r["starts"][i], r["starts"][i] + r["counts"][i])
        a, p = _call(kernel, r, everyone[i:i + 1], eps2, G)
        assert a[sinks].tobytes() == acc[sinks].tobytes(), (kernel, i)
        assert p[sinks].tobytes() == pot[sinks].tobytes(), (kernel, i)


@pytest.mark.parametrize("threads", [2, 3])
def test_a_split_call_is_the_inline_one(threads):
    # Each run of the split call plans and owns its workspace, at the
    # same time as the others.
    r = _rects(2, False)
    n = r["pos"].shape[0]

    def evaluate(kb):
        job = RectJob(r["starts"], r["counts"], (r["offsets"], r["cell_ids"]),
                      (r["offsets"], r["src_ids"]), r["com"], r["mass"], r["quad"], r["pos"],
                      r["masses"], np.zeros((n, 3)), np.zeros(n))
        with split_at_any_size():
            traversal.evaluate_rects(kb, [job], 1e-4, 2.5, PAIR_CHUNK)
        return job.acc, job.pot

    (acc, pot), (acc_t, pot_t) = evaluate(INLINE), evaluate(SPLIT[threads])
    assert acc.tobytes() == acc_t.tobytes() and pot.tobytes() == pot_t.tobytes()


def test_an_evaluation_peaks_at_its_workspace_plus_o_n():
    n = 4000
    rng = np.random.default_rng(4000)
    tree = build_tree(rng.random((n, 3)), np.full(n, 1.0 / n), bucket_size=8)
    lists = build_interaction_lists(tree)
    job = traversal._job(tree, lists, None, None)
    chunk = traversal.DEFAULT_PAIR_CHUNK
    workspace = 8 * max(CELL_ARRAYS * max(_chunk_pairs(job.cells[0], job.counts, chunk)),
                        DIRECT_ARRAYS * max(_chunk_pairs(job.direct[0], job.counts, chunk)))
    evaluate_interaction_lists(tree, lists, eps=0.02, backend=INLINE)  # warm-up
    tracemalloc.start()
    try:
        evaluate_interaction_lists(tree, lists, eps=0.02, backend=INLINE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # What grows with N: the direct lists the evaluation builds, and 64
    # floats a particle for the sums, the pool's copies and a chunk's
    # per-rectangle gathers.
    assert peak <= workspace + job.direct[1].nbytes + 64 * 8 * n, (peak, workspace)
