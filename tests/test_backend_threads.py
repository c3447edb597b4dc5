"""The numpy backend's rectangle kernels split over threads, bit for bit.

:class:`~repro.core.backend.NumpyBackend` splits a rectangle call of at
least ``SPLIT_PAIRS`` evaluated pairs into contiguous runs of
rectangles, one per thread.  A rectangle's result does not depend on
the batch it is evaluated in and sinks are disjoint across rectangles,
so a split call must equal the inline (``threads=1``) call exactly.
Hypothesis draws the rectangle shapes the kernels meet: empty and
zero-width rectangles, a single rectangle, more threads than
rectangles, unsoftened coincident pairs and widths across every pad
bin.  :func:`split_backend` is the forced-threads backend the
differential suites run as their second leg.
"""

import os
from concurrent.futures import TimeoutError as FutureTimeout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_tree, compute_forces, get_backend
from repro.core.backend import NumpyBackend, _shard_bounds, resolve_pool_workers
from repro.core.procpool import ProcPool


def split_backend(threads: int = 2) -> NumpyBackend:
    """A numpy backend that splits every rectangle call over ``threads``."""
    kb = NumpyBackend(threads=threads)
    kb.SPLIT_PAIRS = 0
    return kb


INLINE = NumpyBackend(threads=1)
SPLIT = {threads: split_backend(threads) for threads in (2, 3)}


@st.composite
def rect_calls(draw):
    """A rectangle call's inputs: disjoint sink runs over ``n`` particles
    (zero-length runs included), each against a source list of drawn
    width (zero included).  ``coincident`` puts particles on a few
    shared sites, so an unsoftened direct call meets zero-distance
    pairs."""
    counts = np.array(draw(st.lists(st.integers(0, 6), min_size=0, max_size=12)), dtype=np.int64)
    widths = np.array(draw(st.lists(st.integers(0, 300), min_size=counts.size,
                                    max_size=counts.size)), dtype=np.int64)
    gaps = np.array(draw(st.lists(st.integers(0, 2), min_size=counts.size,
                                  max_size=counts.size)), dtype=np.int64)
    starts = np.cumsum(gaps + counts) - counts
    n = int(starts[-1] + counts[-1]) + 1 if counts.size else 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coincident = draw(st.booleans())
    pos = rng.random((n, 3))
    if coincident:
        pos = rng.random((3, 3))[rng.integers(0, 3, n)]
    offsets = np.concatenate(([0], np.cumsum(widths)))
    return dict(pos3=np.ascontiguousarray(pos.T), masses=rng.uniform(0.5, 1.5, n) / n,
                starts=starts, counts=counts, offsets=offsets,
                src_ids=rng.integers(0, n, int(offsets[-1])),
                eps2=0.0 if coincident else draw(st.sampled_from([0.0, 1e-4])),
                G=draw(st.sampled_from([1.0, 0.5])))


def _direct(kb, call, pair_chunk):
    n = call["pos3"].shape[1]
    acc, pot = np.zeros((n, 3)), np.zeros(n)
    kb.eval_direct_rects(call["pos3"], call["masses"], call["starts"], call["counts"],
                         call["offsets"], call["src_ids"], call["eps2"], call["G"], acc, pot,
                         pair_chunk)
    return acc, pot


def _cells(kb, call, pair_chunk):
    # Cell centres away from every particle: the MAC never accepts a
    # cell at zero distance, and an unsoftened one would be infinite.
    n = call["pos3"].shape[1]
    rng = np.random.default_rng(7)
    n_cells = 40
    com3 = np.ascontiguousarray((rng.random((n_cells, 3)) + 2.0).T)
    mass = rng.uniform(0.5, 1.5, n_cells)
    quad6 = np.ascontiguousarray(rng.normal(0.0, 0.01, (6, n_cells)))
    cell_ids = rng.integers(0, n_cells, call["src_ids"].size)
    acc, pot = np.zeros((n, 3)), np.zeros(n)
    kb.eval_cell_rects(call["pos3"], call["starts"], call["counts"], call["offsets"], cell_ids,
                       com3, mass, quad6, call["eps2"], call["G"], acc, pot, pair_chunk)
    return acc, pot


class TestSplitEqualsInline:
    @settings(max_examples=60, deadline=None)
    @given(call=rect_calls(), pair_chunk=st.sampled_from([1, 17, 1 << 16]))
    def test_direct_rects(self, call, pair_chunk):
        ref = _direct(INLINE, call, pair_chunk)
        for threads, kb in SPLIT.items():
            acc, pot = _direct(kb, call, pair_chunk)
            assert np.array_equal(acc, ref[0]) and np.array_equal(pot, ref[1]), threads
            assert np.all(np.isfinite(acc))

    @settings(max_examples=60, deadline=None)
    @given(call=rect_calls(), pair_chunk=st.sampled_from([1, 17, 1 << 16]))
    def test_cell_rects(self, call, pair_chunk):
        ref = _cells(INLINE, call, pair_chunk)
        for threads, kb in SPLIT.items():
            acc, pot = _cells(kb, call, pair_chunk)
            assert np.array_equal(acc, ref[0]) and np.array_equal(pot, ref[1]), threads

    @pytest.mark.parametrize("threads", sorted(SPLIT))
    def test_every_pad_bin(self, threads):
        # One rectangle of every width 0..600: every pad bin up to 600.
        widths = np.arange(601, dtype=np.int64)
        counts = np.full(widths.size, 2, dtype=np.int64)
        rng = np.random.default_rng(3)
        n = int(counts.sum())
        offsets = np.concatenate(([0], np.cumsum(widths)))
        call = dict(pos3=np.ascontiguousarray(rng.random((3, n))), masses=np.full(n, 1.0 / n),
                    starts=np.cumsum(counts) - counts, counts=counts, offsets=offsets,
                    src_ids=rng.integers(0, n, int(offsets[-1])), eps2=0.0, G=1.0)
        for kernel in (_direct, _cells):
            ref = kernel(INLINE, call, 1 << 16)
            got = kernel(SPLIT[threads], call, 1 << 16)
            assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])

    def test_below_the_threshold_stays_inline(self):
        kb = NumpyBackend(threads=2)
        kb.SPLIT_PAIRS = 1 << 21  # the default, whatever a plugin set on the class
        _forces(kb)
        assert kb._pool is None  # no call of a 400-particle tree reaches 2^21 pairs
        split = split_backend(2)
        _forces(split)
        assert split._pool is not None


@settings(max_examples=80, deadline=None)
@given(counts=st.lists(st.integers(0, 50), min_size=1, max_size=30),
       data=st.data(), shards=st.integers(1, 5))
def test_shard_bounds_cover_every_rectangle_in_order(counts, data, shards):
    widths = data.draw(st.lists(st.integers(0, 50), min_size=len(counts), max_size=len(counts)))
    bounds = _shard_bounds(np.array(counts), np.array(widths), shards)
    assert 1 <= len(bounds) <= shards
    assert bounds[0][0] == 0 and bounds[-1][1] == len(counts)
    assert all(lo < hi for lo, hi in bounds)
    assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))


def _forces(kb, n=400, seed=5):
    pos = np.random.default_rng(seed).random((n, 3))
    tree = build_tree(pos, np.full(n, 1.0 / n), bucket_size=8)
    res = compute_forces(tree, eps=0.01, backend=kb)
    return res.accelerations, res.potentials


#: Module level, so a forked worker inherits it with the parent's
#: helper pool already created.
_FORKED = split_backend(2)


def _forces_in_worker():
    return os.getpid(), _forces(_FORKED)


class TestForkSafety:
    def test_threaded_call_in_a_forked_worker(self):
        parent = _forces(_FORKED)
        assert _FORKED._pool is not None
        with ProcPool(workers=2) as pool:
            if not pool.forks:
                pytest.skip("the pool does not fork on this platform")
            executor = pool._ensure()
            future = executor.submit(_forces_in_worker)
            try:
                pid, child = future.result(timeout=120)
            except FutureTimeout:  # the inherited pool's threads do not exist
                for proc in executor._processes.values():
                    proc.kill()
                raise
        assert pid != os.getpid()
        assert np.array_equal(child[0], parent[0]) and np.array_equal(child[1], parent[1])


class TestOneCoreCountRule:
    def test_affinity_not_machine_size(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert resolve_pool_workers(None) == 1
        assert NumpyBackend().threads == 1
        assert ProcPool().workers == 1

    def test_no_affinity_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert resolve_pool_workers(None) == 3
        assert NumpyBackend().threads == 3

    def test_registered_default_uses_every_usable_core(self):
        assert get_backend(None).threads == resolve_pool_workers(None)


def test_multiprocess_is_refused_by_name():
    with pytest.raises(ValueError, match="not a kernel backend: 'multiprocess'"):
        get_backend("multiprocess")
