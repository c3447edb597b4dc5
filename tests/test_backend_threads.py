"""The evaluators' runs over threads, bit for bit.

Over :data:`~repro.core.traversal.SPLIT_SINKS` sinks, an evaluation on
a backend of more than one thread is cut into contiguous runs, one per
thread (:func:`~repro.core.traversal.evaluate_rects` cuts rectangles,
:func:`~repro.core.traversal.compute_forces` sink groups).  A
rectangle's result does not depend on the batch it is evaluated in and
sinks are disjoint across runs, so a split evaluation must equal the
inline (``threads=1``) one exactly.  Hypothesis draws the rectangle
shapes the kernels meet: empty and zero-width rectangles, a single
rectangle, more threads than rectangles, unsoftened coincident pairs
and widths across every pad bin.  :func:`split_backend` and
:func:`split_at_any_size` are the forced-threads leg the differential
suites run as their second leg.
"""

import os
from concurrent.futures import TimeoutError as FutureTimeout
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_tree, compute_forces, get_backend, traversal
from repro.core.backend import NumpyBackend, resolve_pool_workers
from repro.core.procpool import ProcPool
from repro.core.traversal import RectJob, evaluate_rects


def split_backend(threads: int = 2) -> NumpyBackend:
    """A numpy backend of ``threads`` threads: it splits every
    evaluation it runs under :func:`split_at_any_size`."""
    return NumpyBackend(threads=threads)


@contextmanager
def split_at_any_size():
    """While open, every evaluation on a backend of more than one
    thread is cut into runs, whatever its size (the threshold that
    ``-p tests.split_kernels`` sets for a whole session)."""
    saved, traversal.SPLIT_SINKS = traversal.SPLIT_SINKS, 0
    try:
        yield
    finally:
        traversal.SPLIT_SINKS = saved


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
    return dict(pos=pos, masses=rng.uniform(0.5, 1.5, n) / n,
                starts=starts, counts=counts, offsets=offsets,
                src_ids=rng.integers(0, n, int(offsets[-1])),
                eps2=0.0 if coincident else draw(st.sampled_from([0.0, 1e-4])),
                G=draw(st.sampled_from([1.0, 0.5])))


def _evaluate(kb, call, pair_chunk, kinds=("cells", "direct")):
    """``evaluate_rects`` of one job whose rectangles hold the call's
    lists as cell lists, direct lists, or both.  Cell centres lie away
    from every particle: the MAC never accepts a cell at zero distance,
    and an unsoftened one would be infinite."""
    n = call["pos"].shape[0]
    rng = np.random.default_rng(7)
    n_cells = 40
    none = (np.zeros_like(call["offsets"]), np.empty(0, dtype=np.int64))
    cells = (call["offsets"], rng.integers(0, n_cells, call["src_ids"].size))
    direct = (call["offsets"], call["src_ids"])
    acc, pot = np.zeros((n, 3)), np.zeros(n)
    job = RectJob(call["starts"], call["counts"], cells if "cells" in kinds else none,
                  direct if "direct" in kinds else none, rng.random((n_cells, 3)) + 2.0,
                  rng.uniform(0.5, 1.5, n_cells), rng.normal(0.0, 0.01, (n_cells, 6)),
                  call["pos"], call["masses"], acc, pot)
    with split_at_any_size():
        evaluate_rects(kb, [job], call["eps2"], call["G"], pair_chunk)
    return acc, pot


class TestSplitEqualsInline:
    @settings(max_examples=60, deadline=None)
    @given(call=rect_calls(), pair_chunk=st.sampled_from([1, 17, 1 << 16]))
    def test_direct_rects(self, call, pair_chunk):
        ref = _evaluate(INLINE, call, pair_chunk, ("direct",))
        for threads, kb in SPLIT.items():
            acc, pot = _evaluate(kb, call, pair_chunk, ("direct",))
            assert np.array_equal(acc, ref[0]) and np.array_equal(pot, ref[1]), threads
            assert np.all(np.isfinite(acc))

    @settings(max_examples=60, deadline=None)
    @given(call=rect_calls(), pair_chunk=st.sampled_from([1, 17, 1 << 16]))
    def test_cell_rects(self, call, pair_chunk):
        ref = _evaluate(INLINE, call, pair_chunk, ("cells",))
        for threads, kb in SPLIT.items():
            acc, pot = _evaluate(kb, call, pair_chunk, ("cells",))
            assert np.array_equal(acc, ref[0]) and np.array_equal(pot, ref[1]), threads

    @pytest.mark.parametrize("threads", sorted(SPLIT))
    def test_every_pad_bin(self, threads):
        # One rectangle of every width 0..600: every pad bin up to 600,
        # each against a cell list and a direct list of that width.
        widths = np.arange(601, dtype=np.int64)
        counts = np.full(widths.size, 2, dtype=np.int64)
        rng = np.random.default_rng(3)
        n = int(counts.sum())
        offsets = np.concatenate(([0], np.cumsum(widths)))
        call = dict(pos=rng.random((n, 3)), masses=np.full(n, 1.0 / n),
                    starts=np.cumsum(counts) - counts, counts=counts, offsets=offsets,
                    src_ids=rng.integers(0, n, int(offsets[-1])), eps2=0.0, G=1.0)
        ref = _evaluate(INLINE, call, 1 << 16)
        got = _evaluate(SPLIT[threads], call, 1 << 16)
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])

    def test_below_the_threshold_stays_inline(self, monkeypatch):
        tasks = []
        fork_join = traversal._fork_join

        def counted(ts):
            tasks.append(len(ts))
            return fork_join(ts)

        monkeypatch.setattr(traversal, "_fork_join", counted)
        monkeypatch.setattr(traversal, "SPLIT_SINKS", 401)
        ref = _forces(split_backend(2))
        monkeypatch.setattr(traversal, "SPLIT_SINKS", 400)
        got = _forces(split_backend(2))
        assert tasks == [1, 2]  # a 400-particle tree splits at 400, not at 401
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])


@settings(max_examples=80, deadline=None)
@given(counts=st.lists(st.integers(0, 50), min_size=1, max_size=30),
       threads=st.integers(1, 5), split=st.booleans())
def test_shard_bounds_cover_every_rectangle_in_order(counts, threads, split):
    weights = np.array(counts)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(traversal, "SPLIT_SINKS", 0 if split else int(weights.sum()) + 1)
        bounds = traversal._runs(NumpyBackend(threads=threads), int(weights.sum()), weights)
    assert 1 <= len(bounds) <= (min(threads, len(counts)) if split else 1)
    assert bounds[0][0] == 0 and bounds[-1][1] == len(counts)
    assert all(lo < hi for lo, hi in bounds)
    assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))


def _forces(kb, n=400, seed=5):
    pos = np.random.default_rng(seed).random((n, 3))
    tree = build_tree(pos, np.full(n, 1.0 / n), bucket_size=8)
    res = compute_forces(tree, eps=0.01, backend=kb)
    return res.accelerations, res.potentials


#: Module level, so a forked worker inherits it, and the parent's
#: helper pool with it.
_FORKED = split_backend(2)


def _forces_in_worker():
    with split_at_any_size():
        return os.getpid(), _forces(_FORKED)


class TestForkSafety:
    def test_threaded_call_in_a_forked_worker(self):
        inline = _forces(INLINE)
        with split_at_any_size():
            parent = _forces(_FORKED)
        assert (os.getpid(), 1) in traversal._POOLS  # the parent's helper exists
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
        for got in (parent, child):
            assert np.array_equal(got[0], inline[0]) and np.array_equal(got[1], inline[1])


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
