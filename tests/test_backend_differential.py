"""Differential-physics suite pinning the kernel backends.

Every backend leg is held to the same physics: accelerations
within tight 99th-percentile bounds of direct summation across a MAC
theta sweep on Plummer and uniform-box distributions, interaction
counts identical across backends (they are a property of the traversal,
never of the kernel), and the batched evaluation path within 1e-10 of
the historical one-group-at-a-time walker with bit-identical counts.
The SPH neighbour search finds the reference's neighbour sets, and its
CSR arrays do not depend on the backend or on ``pair_chunk``.

Deliberately numpy+pytest only (no hypothesis), so every CI job that
installs just those two can run it.
"""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.core import (
    AbsoluteErrorMAC,
    OpeningAngleMAC,
    build_tree,
    compute_forces,
    compute_forces_reference,
    direct_accelerations,
    get_backend,
    tree_accelerations,
)
from repro.core.backend import NumpyBackend
from repro.core.parallel import ParallelConfig
from repro.core.traversal import build_interaction_lists, evaluate_interaction_lists
from tests.test_backend_threads import split_at_any_size, split_backend
from tests.test_parallel_pins import _plummer

#: Backend legs by test id: the shared default backend, plus one forced
#: to split every rectangle call over threads under the id the leg it
#: replaced (the deleted process-pool backend) had.
BACKENDS = {"numpy": get_backend(None), "multiprocess": split_backend(2)}

#: 99th-percentile relative acceleration error allowed per opening
#: angle (generous multiples of measured behaviour, tight enough to
#: catch any kernel arithmetic slip).
P99_BOUNDS = {0.3: 2e-4, 0.5: 1e-3, 0.7: 5e-3}


def _uniform_box(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((n, 3)), rng.uniform(0.5, 1.5, n) / n


DISTRIBUTIONS = {"plummer": _plummer, "uniform": _uniform_box}


def _forces(tree, backend, **kwargs):
    """``compute_forces``, split at any size on the forced-threads leg."""
    with split_at_any_size() if backend is BACKENDS["multiprocess"] else nullcontext():
        return compute_forces(tree, backend=backend, **kwargs)


def _p99_rel_err(approx, exact):
    scale = np.linalg.norm(exact, axis=1)
    err = np.linalg.norm(approx - exact, axis=1) / np.maximum(scale, 1e-300)
    return float(np.percentile(err, 99))


@pytest.mark.parametrize("backend", BACKENDS.values(), ids=BACKENDS)
@pytest.mark.parametrize("dist", sorted(DISTRIBUTIONS))
@pytest.mark.parametrize("theta", sorted(P99_BOUNDS))
def test_backend_vs_direct(backend, dist, theta):
    pos, m = DISTRIBUTIONS[dist](600, seed=11)
    exact = direct_accelerations(pos, m, eps=0.01)
    tree = build_tree(pos, m, bucket_size=16)
    res = _forces(tree, mac=OpeningAngleMAC(theta), eps=0.01, backend=backend)
    assert np.all(np.isfinite(res.accelerations))
    assert _p99_rel_err(res.accelerations, exact.accelerations) < P99_BOUNDS[theta]


@pytest.mark.parametrize("dist", sorted(DISTRIBUTIONS))
@pytest.mark.parametrize("theta", sorted(P99_BOUNDS))
def test_backends_agree_exactly_on_counts(dist, theta):
    pos, m = DISTRIBUTIONS[dist](400, seed=5)
    tree = build_tree(pos, m, bucket_size=16)
    results = {
        name: _forces(tree, mac=OpeningAngleMAC(theta), eps=0.02, backend=b)
        for name, b in BACKENDS.items()
    }
    ref = results["numpy"]
    for b, res in results.items():
        assert res.counts == ref.counts, b
        # Backends share physics to near machine precision even though
        # their summation orders differ.
        assert np.allclose(res.accelerations, ref.accelerations, rtol=1e-12, atol=1e-12), b
        assert np.allclose(res.potentials, ref.potentials, rtol=1e-12, atol=1e-12), b


class TestBatchedVsReferenceWalker:
    """The acceptance pin: batched == historical walker to 1e-10."""

    @pytest.mark.parametrize("theta", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("dist", sorted(DISTRIBUTIONS))
    def test_accelerations_and_counts(self, theta, dist):
        pos, m = DISTRIBUTIONS[dist](500, seed=3)
        tree = build_tree(pos, m, bucket_size=16)
        mac = OpeningAngleMAC(theta)
        batched = compute_forces(tree, mac=mac, eps=0.01)
        walker = compute_forces_reference(tree, mac=mac, eps=0.01)
        assert batched.counts == walker.counts
        assert np.max(np.abs(batched.accelerations - walker.accelerations)) < 1e-10
        assert np.max(np.abs(batched.potentials - walker.potentials)) < 1e-10

    def test_absolute_error_mac(self):
        pos, m = _plummer(400, seed=9)
        tree = build_tree(pos, m, bucket_size=16)
        mac = AbsoluteErrorMAC(1e-4)
        batched = compute_forces(tree, mac=mac, eps=0.01)
        walker = compute_forces_reference(tree, mac=mac, eps=0.01)
        assert batched.counts == walker.counts
        assert np.max(np.abs(batched.accelerations - walker.accelerations)) < 1e-10

    def test_unsoftened_and_nonunit_G(self):
        pos, m = _uniform_box(300, seed=17)
        tree = build_tree(pos, m, bucket_size=8)
        batched = compute_forces(tree, eps=0.0, G=2.5)
        walker = compute_forces_reference(tree, eps=0.0, G=2.5)
        assert batched.counts == walker.counts
        assert np.max(np.abs(batched.accelerations - walker.accelerations)) < 1e-10

    @pytest.mark.parametrize("pair_chunk", [1, 17, 4096, 1 << 20])
    def test_pair_chunk_invariance(self, pair_chunk):
        pos, m = _plummer(300, seed=21)
        tree = build_tree(pos, m, bucket_size=16)
        base = compute_forces(tree, eps=0.01)
        chunked = compute_forces(tree, eps=0.01, pair_chunk=pair_chunk)
        assert chunked.counts == base.counts
        assert np.array_equal(chunked.accelerations, base.accelerations)
        assert np.array_equal(chunked.potentials, base.potentials)


class TestBackendRegistry:
    def test_numpy_always_present(self):
        assert isinstance(get_backend(None), NumpyBackend)
        assert get_backend(None).name == "numpy"

    def test_default_resolution(self):
        assert get_backend() is get_backend(None)  # one shared instance
        inst = split_backend(2)
        assert get_backend(inst) is inst

    def test_unknown_name(self):
        # Backends are instances: a name, even the default's, is refused.
        for value in ("fortran-iv", "numpy", NumpyBackend):
            with pytest.raises(ValueError) as err:
                get_backend(value)
            assert str(err.value) == f"not a kernel backend: {value!r}"
        with pytest.raises(ValueError, match="not a kernel backend: 'numpy'"):
            ParallelConfig(backend="numpy")


class TestEdgeCases:
    """Regression pins for the degenerate inputs of the hot paths."""

    def test_direct_empty(self):
        res = direct_accelerations(np.empty((0, 3)), np.empty(0))
        assert res.accelerations.shape == (0, 3)
        assert res.potentials.shape == (0,)
        assert res.counts.p2p == 0

    def test_direct_single_particle(self):
        res = direct_accelerations(np.zeros((1, 3)), np.ones(1), eps=0.0)
        assert np.allclose(res.accelerations, 0.0)
        assert np.allclose(res.potentials, 0.0)

    @pytest.mark.parametrize("block", [1, 7, 16, 37, 1000])
    def test_direct_block_not_divisible(self, block):
        pos, m = _uniform_box(37, seed=2)
        ref = direct_accelerations(pos, m)
        res = direct_accelerations(pos, m, block=block)
        # Block size only changes fp summation order.
        assert np.allclose(res.accelerations, ref.accelerations, rtol=1e-13, atol=1e-13)
        assert np.allclose(res.potentials, ref.potentials, rtol=1e-13, atol=1e-13)
        assert res.counts == ref.counts

    def test_direct_block_validation(self):
        with pytest.raises(ValueError, match="block"):
            direct_accelerations(np.zeros((2, 3)), np.ones(2), block=0)

    def test_direct_zero_mass_particles(self):
        pos, m = _uniform_box(50, seed=4)
        m = m.copy()
        m[::3] = 0.0
        res = direct_accelerations(pos, m, eps=0.0)
        assert np.all(np.isfinite(res.accelerations))
        # Massless particles feel forces but exert none.
        massive = direct_accelerations(pos[m > 0], m[m > 0], eps=0.0)
        assert np.allclose(
            res.potentials[m > 0], massive.potentials, rtol=1e-12, atol=1e-14
        )

    def test_tree_single_leaf_group(self):
        # N <= bucket_size: the root is the only leaf, so the first
        # frontier pass is the group itself and every interaction is
        # direct.
        pos, m = _uniform_box(20, seed=6)
        tree = build_tree(pos, m, bucket_size=32)
        assert tree.leaf_ids.shape[0] == 1
        res = compute_forces(tree, eps=0.0)
        ref = direct_accelerations(pos, m, eps=0.0)
        assert res.counts.p2c == 0
        assert res.counts.p2p == 20 * 20
        assert np.max(np.abs(res.accelerations - ref.accelerations)) < 1e-12

    def test_tree_single_particle(self):
        tree = build_tree(np.zeros((1, 3)), np.ones(1))
        res = compute_forces(tree, eps=0.1)
        assert np.allclose(res.accelerations, 0.0)
        assert np.allclose(res.potentials, 0.0)

    def test_tree_zero_mass_particles(self):
        pos, m = _plummer(200, seed=8)
        m = m.copy()
        m[::4] = 0.0
        batched = compute_forces(build_tree(pos, m, bucket_size=8), eps=0.01)
        walker = compute_forces_reference(build_tree(pos, m, bucket_size=8), eps=0.01)
        assert np.all(np.isfinite(batched.accelerations))
        assert np.max(np.abs(batched.accelerations - walker.accelerations)) < 1e-10

    def test_tree_coincident_unsoftened(self):
        pos = np.zeros((12, 3))
        pos[6:] = 1.0
        tree = build_tree(pos, np.ones(12), bucket_size=4)
        res = compute_forces(tree, eps=0.0)
        ref = compute_forces_reference(tree, eps=0.0)
        assert np.all(np.isfinite(res.accelerations))
        assert np.max(np.abs(res.accelerations - ref.accelerations)) < 1e-10

    def test_evaluate_lists_validation(self):
        pos, m = _uniform_box(30, seed=1)
        tree = build_tree(pos, m)
        lists = build_interaction_lists(tree)
        with pytest.raises(ValueError, match="pair_chunk"):
            evaluate_interaction_lists(tree, lists, pair_chunk=0)
        with pytest.raises(ValueError, match="softening"):
            evaluate_interaction_lists(tree, lists, eps=-1.0)


class TestBatchedNeighborsVsReference:
    """The batched SPH neighbor walk returns the reference's sets."""

    @staticmethod
    def _sets(lists):
        return [np.sort(lists.of(i)).tolist() for i in range(lists.n_particles)]

    @pytest.mark.parametrize("backend", BACKENDS.values(), ids=BACKENDS)
    @pytest.mark.parametrize("n,bucket", [(1, 32), (2, 32), (5, 4), (64, 8), (300, 16)])
    def test_neighbor_sets_match(self, n, bucket, backend):
        from repro.sph import find_neighbors, find_neighbors_reference

        rng = np.random.default_rng(n)
        pos = rng.random((n, 3))
        tree = build_tree(pos, np.full(n, 1.0 / n), bucket_size=bucket)
        radii = rng.uniform(0.08, 0.3, n)
        batched = find_neighbors(tree, radii, backend=backend)
        ref = find_neighbors_reference(tree, radii)
        assert self._sets(batched) == self._sets(ref)

    def test_neighbor_lists_backend_exact(self):
        # pair_within/bincount_sum are exact comparisons and integer
        # counts, so the CSR arrays (not just the sets) must be
        # identical across every registered backend.
        from repro.sph import find_neighbors

        rng = np.random.default_rng(77)
        pos = rng.random((200, 3))
        tree = build_tree(pos, np.full(200, 1.0 / 200), bucket_size=8)
        radii = rng.uniform(0.05, 0.25, 200)
        ref = find_neighbors(tree, radii)
        for name, b in BACKENDS.items():
            got = find_neighbors(tree, radii, backend=b)
            assert np.array_equal(got.offsets, ref.offsets), name
            assert np.array_equal(got.neighbors, ref.neighbors), name

    def test_pair_chunk_invariance(self):
        from repro.sph import find_neighbors

        rng = np.random.default_rng(42)
        pos = rng.random((150, 3))
        tree = build_tree(pos, np.full(150, 1.0 / 150), bucket_size=8)
        radii = np.full(150, 0.2)
        base = find_neighbors(tree, radii)
        for pair_chunk in (1, 7, 1000):
            tiny = find_neighbors(tree, radii, pair_chunk=pair_chunk)
            assert np.array_equal(base.offsets, tiny.offsets), pair_chunk
            assert np.array_equal(base.neighbors, tiny.neighbors), pair_chunk


def test_tree_accelerations_backend_kwarg():
    pos, m = _plummer(200, seed=12)
    a = tree_accelerations(pos, m, eps=0.01)
    with split_at_any_size():
        b = tree_accelerations(pos, m, eps=0.01, backend=split_backend(2))
    assert np.array_equal(a.accelerations, b.accelerations)
    assert a.counts == b.counts
