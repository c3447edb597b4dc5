"""A force computation cut into runs of sink groups, one per thread.

:func:`~repro.core.traversal.compute_forces` cuts the leaf groups into
contiguous runs, and each thread walks its run from the root and sums
its forces.  The walk of a subset of groups emits each group's pairs in
the order the walk of all of them does, and sinks are disjoint across
runs, so everything a computation reports must equal the inline one
(``threads=1``): ``acc`` and ``pot`` bit for bit, the
:class:`~repro.core.traversal.InteractionCounts`, and the
``gravity.mac_tests`` (a sum over runs) and ``gravity.traversal_passes``
(a maximum) counters.  Hypothesis forces the split at every size
(:func:`~tests.test_backend_threads.split_at_any_size`) over uniform,
clustered and coincident clouds; the rest holds the edges: fewer groups
than threads, one leaf, concurrent callers and a backend that knows
nothing of threads (a forked worker: ``tests/test_backend_threads.py``).
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_tree, compute_forces, traversal
from repro.core.backend import KernelBackend, NumpyBackend
from repro.core.mac import OpeningAngleMAC
from repro.obs import wallclock
from tests.test_backend_threads import split_at_any_size

INLINE = NumpyBackend(threads=1)

#: The counters ``compute_forces`` emits, totals over its runs.
COUNTERS = ("gravity.mac_tests", "gravity.traversal_passes", "gravity.p2p", "gravity.p2c",
            "gravity.groups")


def _cloud(kind: str, n: int, seed: int):
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        pos = rng.random((n, 3))
    elif kind == "clustered":
        r = rng.random(n) ** 3  # most particles near the centre: a deep, uneven tree
        d = rng.standard_normal((n, 3))
        pos = r[:, None] * d / np.linalg.norm(d, axis=1, keepdims=True)
    else:  # coincident: a few shared sites
        pos = rng.random((4, 3))[rng.integers(0, 4, n)]
    return pos, rng.uniform(0.5, 1.5, n) / n


def _run(tree, kb, **kwargs):
    """(result, counters) of one profiled ``compute_forces``."""
    with wallclock.profile() as rec:
        res = compute_forces(tree, backend=kb, **kwargs)
    return res, {name: rec.counters[name].value for name in COUNTERS}


def _assert_same(got, ref):
    (res, counters), (ref_res, ref_counters) = got, ref
    np.testing.assert_array_equal(res.accelerations, ref_res.accelerations)
    np.testing.assert_array_equal(res.potentials, ref_res.potentials)
    assert res.counts == ref_res.counts
    assert counters == ref_counters


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["uniform", "clustered", "coincident"]),
       n=st.one_of(st.integers(1, 200), st.integers(200, 3000)),
       seed=st.integers(0, 2**32 - 1), bucket_size=st.integers(1, 64),
       eps=st.sampled_from([0.0, 0.01]), theta=st.sampled_from([0.3, 0.6, 0.9]),
       threads=st.sampled_from([2, 3]))
def test_split_equals_inline(kind, n, seed, bucket_size, eps, theta, threads):
    pos, m = _cloud(kind, n, seed)
    tree = build_tree(pos, m, bucket_size=bucket_size)
    kwargs = dict(mac=OpeningAngleMAC(theta), eps=eps)
    ref = _run(tree, INLINE, **kwargs)
    with split_at_any_size():
        got = _run(tree, NumpyBackend(threads=threads), **kwargs)
    _assert_same(got, ref)


@pytest.mark.parametrize("n, leaves", [(1, 1), (20, 1), (40, 2)],
                         ids=["one-particle", "one-leaf", "two-leaves"])
def test_fewer_groups_than_threads(n, leaves):
    # Two clumps in opposite octants of the root: one leaf each.
    pos, m = _cloud("uniform", n, 3)
    pos = 0.1 * pos + np.where(np.arange(n) % leaves, 0.8, 0.0)[:, None]
    tree = build_tree(pos, m, bucket_size=32)
    assert tree.leaf_ids.size == leaves
    ref = _run(tree, INLINE, eps=0.01)
    with split_at_any_size():
        for threads in (2, 3, 4):
            _assert_same(_run(tree, NumpyBackend(threads=threads), eps=0.01), ref)


def _forces(tree, kb):
    res = compute_forces(tree, eps=0.01, backend=kb)
    return res.accelerations, res.potentials


def _tree(n=1500, seed=8):
    pos, m = _cloud("clustered", n, seed)
    return build_tree(pos, m, bucket_size=8)


def test_three_callers_at_once():
    # Three threads each split their own computation over the shared
    # helper pool, more threads than cores, switching as often as the
    # interpreter can: each must finish, and none may see another's sums.
    tree = _tree()
    ref = _forces(tree, INLINE)
    kb = NumpyBackend(threads=2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with split_at_any_size(), ThreadPoolExecutor(3) as callers:
            results = [callers.submit(_forces, tree, kb) for _ in range(3)]
            for future in results:
                acc, pot = future.result(timeout=120)
                assert np.array_equal(acc, ref[0]) and np.array_equal(pot, ref[1])
    finally:
        sys.setswitchinterval(interval)


class _Delegating(KernelBackend):
    """Every kernel call goes verbatim to a wrapped backend, which has
    threads; the wrapper itself has no ``threads`` attribute, as a
    timing proxy does not."""

    name = "delegating"

    def __init__(self, base):
        self.base = base
        self.calls = 0


def _delegate(method):
    def call(self, *args, **kwargs):
        self.calls += 1
        return getattr(self.base, method)(*args, **kwargs)

    return call


for _method in ("eval_cells_dense", "eval_direct_dense", "eval_cell_rects", "eval_direct_rects",
                "segment_sum", "scatter_add", "bincount_sum", "scatter_min", "pair_within"):
    setattr(_Delegating, _method, _delegate(_method))
del _method


def test_backend_without_threads_runs_inline(monkeypatch):
    tree = _tree()
    ref = _forces(tree, INLINE)
    tasks = []
    fork_join = traversal._fork_join

    def counted(ts):
        tasks.append(len(ts))
        return fork_join(ts)

    monkeypatch.setattr(traversal, "_fork_join", counted)
    kb = _Delegating(NumpyBackend(threads=2))
    assert not hasattr(kb, "threads")
    with split_at_any_size():
        acc, pot = _forces(tree, kb)
    assert tasks == [1] and kb.calls == 2  # one run: one call of each kernel
    assert np.array_equal(acc, ref[0]) and np.array_equal(pot, ref[1])
