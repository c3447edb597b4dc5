"""Property suite for the real-core pool and the threaded kernels.

Hypothesis drives the invariants the execution layer on real cores
promises:

* pool results are a pure function of the task list — invariant under
  worker count (1/2/4) and task-order permutation, with errors as data
  (an exception becomes an ``"error"`` :class:`TaskResult`, never an
  exception out of the pool);
* force evaluations split over threads are **bit-identical** to
  inline ones no matter the thread count, split threshold
  (``SPLIT_SINKS``), or ``pair_chunk`` size;
* a worker killed with SIGKILL surfaces as an error entry for the task
  that killed it while every other task's result is delivered intact —
  chaos costs a shard, never the merged result, and the rebuilt pool's
  workers, splitting their forces over threads, match the parent's.
"""

import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_tree, compute_forces, traversal
from repro.core.backend import NumpyBackend
from repro.core.procpool import ProcPool, run_tasks
from tests.test_backend_threads import split_backend

INLINE = NumpyBackend(threads=1)

# Pool startup dominates example runtime: keep the example counts low
# and the pools shared across examples.
POOL_SETTINGS = settings(max_examples=8, deadline=None)


def _square_mod(x: int) -> int:
    return (x * x) % 7919


def _maybe_raise(x: int) -> int:
    if x % 5 == 3:
        raise ValueError(f"poison {x}")
    return 2 * x


def _kill_if(x: int) -> int:
    if x == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return 10 * x


@pytest.fixture(scope="module")
def pools():
    ps = {w: ProcPool(workers=w) for w in (1, 2, 4)}
    yield ps
    for p in ps.values():
        p.shutdown()


@pytest.fixture(scope="module")
def split_backends():
    return {w: split_backend(w) for w in (1, 2, 4)}


class TestPoolInvariants:
    @POOL_SETTINGS
    @given(xs=st.lists(st.integers(0, 10_000), max_size=12))
    def test_worker_count_invariance(self, pools, xs):
        args = [(x,) for x in xs]
        expected = [_square_mod(x) for x in xs]
        for w, pool in pools.items():
            results = pool.map(_square_mod, args)
            assert [r.ok for r in results] == [True] * len(xs), w
            assert [r.value for r in results] == expected, w

    @POOL_SETTINGS
    @given(
        xs=st.lists(st.integers(0, 1000), min_size=2, max_size=10),
        seed=st.integers(0, 2**31),
    )
    def test_order_permutation(self, pools, xs, seed):
        perm = np.random.default_rng(seed).permutation(len(xs))
        base = pools[2].map(_square_mod, [(x,) for x in xs])
        permuted = pools[2].map(_square_mod, [(xs[i],) for i in perm])
        assert [r.value for r in permuted] == [base[i].value for i in perm]

    @POOL_SETTINGS
    @given(xs=st.lists(st.integers(0, 100), max_size=12))
    def test_errors_are_data(self, pools, xs):
        results = pools[2].map(_maybe_raise, [(x,) for x in xs])
        for x, r in zip(xs, results):
            if x % 5 == 3:
                assert not r.ok
                assert "poison" in r.error
            else:
                assert r.ok
                assert r.value == 2 * x

    def test_imap_unordered_covers_every_task(self, pools):
        args = [(x,) for x in range(9)]
        seen = {r.index: r.value for r in pools[4].imap_unordered(_square_mod, args)}
        assert seen == {i: _square_mod(i) for i in range(9)}

    def test_run_tasks_serial_matches_pool(self):
        args = [(x,) for x in range(7)]
        serial = run_tasks(_square_mod, args, workers=1)
        pooled = run_tasks(_square_mod, args, workers=3)
        assert [r.value for r in serial] == [r.value for r in pooled]


class TestThreadedBackendBitIdentity:
    """Split evaluations == inline ones, bit for bit, however sliced."""

    @staticmethod
    def _forces(n, seed, backend, pair_chunk=1 << 18, split_sinks=0):
        rng = np.random.default_rng(seed)
        pos = rng.random((n, 3))
        tree = build_tree(pos, np.full(n, 1.0 / n), bucket_size=8)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(traversal, "SPLIT_SINKS", split_sinks)
            return compute_forces(tree, eps=0.01, backend=backend, pair_chunk=pair_chunk)

    @POOL_SETTINGS
    @given(n=st.integers(10, 150), seed=st.integers(0, 2**31))
    def test_worker_count_invariance(self, split_backends, n, seed):
        ref = self._forces(n, seed, INLINE)
        for w, backend in split_backends.items():
            got = self._forces(n, seed, backend)
            assert got.counts == ref.counts, w
            assert np.array_equal(got.accelerations, ref.accelerations), w
            assert np.array_equal(got.potentials, ref.potentials), w

    @POOL_SETTINGS
    @given(
        n=st.integers(20, 120),
        seed=st.integers(0, 2**31),
        pair_chunk=st.sampled_from([1, 17, 4096]),
    )
    def test_pair_chunk_invariance(self, split_backends, n, seed, pair_chunk):
        ref = self._forces(n, seed, INLINE)
        got = self._forces(n, seed, split_backends[2], pair_chunk=pair_chunk)
        assert got.counts == ref.counts
        assert np.array_equal(got.accelerations, ref.accelerations)

    @POOL_SETTINGS
    @given(n=st.integers(20, 120), seed=st.integers(0, 2**31),
           split_sinks=st.sampled_from([0, 100, 1 << 30]))
    def test_shard_threshold_invariance(self, n, seed, split_sinks):
        ref = self._forces(n, seed, INLINE)
        got = self._forces(n, seed, split_backend(2), split_sinks=split_sinks)
        assert np.array_equal(got.accelerations, ref.accelerations)
        assert np.array_equal(got.potentials, ref.potentials)


class TestWorkerDeath:
    def test_sigkill_is_an_error_entry_not_a_crash(self):
        with ProcPool(workers=2) as pool:
            results = pool.map(_kill_if, [(x,) for x in range(6)], retries=1)
        assert len(results) == 6
        dead = results[3]
        assert not dead.ok
        assert "worker died" in dead.error
        for x in (0, 1, 2, 4, 5):
            assert results[x].ok, results[x]
            assert results[x].value == 10 * x

    def test_sigkill_does_not_corrupt_backend_result(self):
        # Kill workers mid-lifetime: the pool goes through the
        # broken->rebuild path, and the forces its fresh workers, forked
        # after the parent split an evaluation over threads, split over
        # threads of their own must still be bit-identical to the parent's.
        ref = TestThreadedBackendBitIdentity._forces(80, 5, _SPLIT)
        with ProcPool(workers=2) as pool:
            list(pool.imap_unordered(_kill_if, [(3,), (3,)], retries=0))
            results = pool.map(_split_forces, [(80, 5)] * 2)
        for r in results:
            assert r.ok, r.error
            assert np.array_equal(r.value[0], ref.accelerations)
            assert np.array_equal(r.value[1], ref.potentials)


#: Module level, so forked workers inherit it, and the parent's helper
#: pool with it.
_SPLIT = split_backend(2)


def _split_forces(n: int, seed: int):
    res = TestThreadedBackendBitIdentity._forces(n, seed, _SPLIT)
    return res.accelerations, res.potentials
