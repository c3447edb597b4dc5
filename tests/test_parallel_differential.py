"""Differential tests for the latency-hiding communication layer.

The same convention PR 4 established for kernel backends, applied to
communication schedules: the optimized path (``comm="async"`` with
request batching, the persistent cell cache, and LET prefetch) must be
**bit-identical** to the kept blocking ABM reference — same
accelerations, same potentials, same interaction counts — across rank
counts and particle distributions.  Physics must never depend on how
the bytes moved.
"""

import numpy as np
import pytest

from repro.core import ParallelConfig, parallel_nbody_run, parallel_tree_accelerations
from repro.core.backend import NumpyBackend
from tests.test_backend_threads import split_at_any_size, split_backend


def uniform_cube(n, seed=11):
    rng = np.random.default_rng(seed)
    return rng.random((n, 3)), rng.random(n) / n


def clustered_sphere(n, seed=12):
    """Cosmology-style centrally-concentrated sphere — deep, uneven tree."""
    rng = np.random.default_rng(seed)
    r = rng.random(n) ** (2.0 / 3.0)
    d = rng.standard_normal((n, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return r[:, None] * d, np.full(n, 1.0 / n)


DISTRIBUTIONS = {"uniform": uniform_cube, "clustered": clustered_sphere}


def _run(pos, m, ranks, **cfg):
    res = parallel_tree_accelerations(
        pos, m, n_ranks=ranks, config=ParallelConfig(theta=0.7, eps=0.02, **cfg)
    )
    return res


class TestAsyncVsBlockingBitIdentity:
    @pytest.mark.parametrize("ranks", [2, 4, 7])
    @pytest.mark.parametrize("dist", sorted(DISTRIBUTIONS))
    def test_accelerations_counts_identical(self, ranks, dist):
        pos, m = DISTRIBUTIONS[dist](700)
        a = _run(pos, m, ranks, comm="async")
        b = _run(pos, m, ranks, comm="blocking")
        assert np.array_equal(a.accelerations, b.accelerations)
        assert np.array_equal(a.potentials, b.potentials)
        assert (a.counts.p2p, a.counts.p2c, a.counts.groups) == (
            b.counts.p2p, b.counts.p2c, b.counts.groups)

    def test_prefetch_off_still_identical(self):
        pos, m = clustered_sphere(600)
        a = _run(pos, m, 4, comm="async", prefetch_rounds=0)
        b = _run(pos, m, 4, comm="blocking")
        assert np.array_equal(a.accelerations, b.accelerations)

    def test_async_batches_fewer_requests(self):
        # Deduplicated per-owner batching + prefetch must not send more
        # request items than the blocking path's per-walk requests.
        pos, m = clustered_sphere(800)
        a = _run(pos, m, 4, comm="async")
        b = _run(pos, m, 4, comm="blocking")
        assert a.comm["requests"] <= b.comm["requests"]

    def test_matches_single_rank_at_mac_error_scale(self):
        # Different rank counts group sinks differently, so agreement
        # is at the MAC-error scale, not bitwise.
        pos, m = uniform_cube(500)
        one = _run(pos, m, 1, comm="async")
        four = _run(pos, m, 4, comm="async")
        err = np.linalg.norm(one.accelerations - four.accelerations, axis=1)
        scale = np.linalg.norm(one.accelerations, axis=1)
        assert np.median(err / scale) < 2e-3


class TestBatchedVsPergroupEval:
    """The CSR-pooled evaluator vs the kept per-group reference.

    Batching reorders nothing physical — same interaction counts, same
    virtual time — but it fuses per-group kernel calls into one call
    per ready-batch, so float sums associate differently.  Documented
    tolerance: ~1e-12 relative (fixed seeds); counts and the virtual
    clock must still match exactly, and the batched path split over
    threads must be bit-identical to serial batched.
    """

    @pytest.mark.parametrize("ranks", [2, 4, 7])
    @pytest.mark.parametrize("dist", sorted(DISTRIBUTIONS))
    def test_batched_matches_pergroup_reference(self, ranks, dist):
        pos, m = DISTRIBUTIONS[dist](700)
        bat = _run(pos, m, ranks, eval="batched")
        ref = _run(pos, m, ranks, eval="pergroup")
        assert (bat.counts.p2p, bat.counts.p2c, bat.counts.groups) == (
            ref.counts.p2p, ref.counts.p2c, ref.counts.groups)
        assert bat.sim.elapsed == ref.sim.elapsed
        assert np.allclose(bat.accelerations, ref.accelerations,
                           rtol=1e-11, atol=1e-14)
        assert np.allclose(bat.potentials, ref.potentials,
                           rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("ranks", [2, 4])
    def test_threaded_batched_bit_identical_to_serial(self, ranks):
        pos, m = clustered_sphere(600)
        serial = _run(pos, m, ranks, eval="batched", backend=NumpyBackend(threads=1))
        with split_at_any_size():
            sharded = _run(pos, m, ranks, eval="batched", backend=split_backend(2))
        assert np.array_equal(sharded.accelerations, serial.accelerations)
        assert np.array_equal(sharded.potentials, serial.potentials)
        assert (sharded.counts.p2p, sharded.counts.p2c) == (
            serial.counts.p2p, serial.counts.p2c)

    def test_multistep_run_batched_vs_pergroup(self):
        pos, m = clustered_sphere(400, seed=41)
        kwargs = dict(n_ranks=4, n_steps=2, dt=1e-3)
        bat = parallel_nbody_run(
            pos, m, config=ParallelConfig(theta=0.7, eps=0.02, eval="batched"),
            **kwargs)
        ref = parallel_nbody_run(
            pos, m, config=ParallelConfig(theta=0.7, eps=0.02, eval="pergroup"),
            **kwargs)
        assert np.allclose(bat.positions, ref.positions, rtol=1e-10, atol=1e-13)
        assert np.allclose(bat.velocities, ref.velocities, rtol=1e-10, atol=1e-13)
        assert bat.sim.elapsed == ref.sim.elapsed


class TestCrossTimestepConsistency:
    """A warm cross-step cache must be invisible in the physics."""

    @pytest.mark.parametrize("ranks", [2, 4])
    def test_two_step_run_warm_equals_cold(self, ranks):
        pos, m = clustered_sphere(500, seed=21)
        kwargs = dict(n_ranks=ranks, n_steps=2, dt=5e-3,
                      config=ParallelConfig(theta=0.7, eps=0.02))
        warm = parallel_nbody_run(pos, m, cache_across_steps=True, **kwargs)
        cold = parallel_nbody_run(pos, m, cache_across_steps=False, **kwargs)
        for s in range(2):
            assert np.array_equal(
                warm.step_accelerations[s], cold.step_accelerations[s]), (
                f"step {s} drifted with ranks={ranks}")
        assert np.array_equal(warm.positions, cold.positions)
        assert np.array_equal(warm.velocities, cold.velocities)

    @pytest.mark.parametrize("ranks", [2, 4])
    def test_static_system_reuses_cache(self, ranks):
        # dt=0 with rebalancing off: nothing moves, every fingerprint
        # is stable, so step 2 must hit the cache instead of the wire —
        # and still produce the bit-identical forces.
        pos, m = clustered_sphere(500, seed=22)
        kwargs = dict(n_ranks=ranks, n_steps=2, dt=0.0, rebalance=False,
                      config=ParallelConfig(theta=0.7, eps=0.02))
        warm = parallel_nbody_run(pos, m, cache_across_steps=True, **kwargs)
        cold = parallel_nbody_run(pos, m, cache_across_steps=False, **kwargs)
        assert np.array_equal(warm.step_accelerations[0], warm.step_accelerations[1])
        assert np.array_equal(warm.step_accelerations[1], cold.step_accelerations[1])
        assert warm.comm["cache_invalidated"] == 0
        assert warm.comm["requests"] < cold.comm["requests"]

    def test_moving_system_invalidates_cache(self):
        pos, m = clustered_sphere(500, seed=23)
        warm = parallel_nbody_run(
            pos, m, n_ranks=4, n_steps=2, dt=1e-2,
            config=ParallelConfig(theta=0.7, eps=0.02))
        assert warm.comm["cache_invalidated"] > 0


class TestMultiStepDriver:
    def test_single_step_matches_one_shot_force(self):
        pos, m = uniform_cube(400, seed=31)
        cfg = ParallelConfig(theta=0.7, eps=0.02)
        run1 = parallel_nbody_run(pos, m, n_ranks=3, n_steps=1, dt=1e-3, config=cfg)
        one = parallel_tree_accelerations(pos, m, n_ranks=3, config=cfg)
        # Same tree parameters, same MAC: forces agree to rounding
        # (the driver's padded fixed box shifts the key grid, so cell
        # membership — hence bitwise forces — can differ slightly).
        err = np.linalg.norm(run1.accelerations - one.accelerations, axis=1)
        scale = np.linalg.norm(one.accelerations, axis=1)
        assert np.median(err / scale) < 5e-3

    def test_rebalancing_improves_measured_balance(self):
        # Clustered particles + block scatter start badly unbalanced;
        # feeding measured interaction work back into the splitters must
        # bring max/mean down versus the frozen decomposition.
        pos, m = clustered_sphere(1200, seed=32)
        kwargs = dict(n_ranks=6, n_steps=3, dt=1e-4,
                      config=ParallelConfig(theta=0.7, eps=0.02))
        frozen = parallel_nbody_run(pos, m, rebalance=False, **kwargs)
        tuned = parallel_nbody_run(pos, m, rebalance=True, **kwargs)
        assert tuned.work_imbalance[-1] < frozen.work_imbalance[-1]
        assert tuned.work_imbalance[-1] < tuned.work_imbalance[0] + 1e-12

    def test_deterministic_repeat(self):
        pos, m = clustered_sphere(400, seed=33)
        kwargs = dict(n_ranks=4, n_steps=3, dt=1e-3)
        r1 = parallel_nbody_run(pos, m, **kwargs)
        r2 = parallel_nbody_run(pos, m, **kwargs)
        assert np.array_equal(r1.positions, r2.positions)
        assert np.array_equal(r1.velocities, r2.velocities)
        assert r1.sim.elapsed == r2.sim.elapsed

    def test_momentum_roughly_conserved(self):
        pos, m = uniform_cube(500, seed=34)
        res = parallel_nbody_run(pos, m, n_ranks=4, n_steps=4, dt=1e-3)
        p0 = np.zeros(3)
        p1 = (m[:, None] * res.velocities).sum(axis=0)
        # Interaction forces are not exactly pairwise-antisymmetric
        # under the MAC, so momentum drifts at the MAC-error scale.
        assert np.linalg.norm(p1 - p0) < 1e-3

    def test_input_validation(self):
        pos, m = uniform_cube(50)
        with pytest.raises(ValueError):
            parallel_nbody_run(pos, m, n_ranks=2, n_steps=0, dt=1e-3)
        with pytest.raises(ValueError):
            parallel_nbody_run(pos, m, velocities=np.zeros((3, 3)),
                               n_ranks=2, n_steps=1, dt=1e-3)
