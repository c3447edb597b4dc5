"""Tests for repro.core.gravity and traversal: force correctness."""

import numpy as np
import pytest

from repro.core import (
    AbsoluteErrorMAC,
    OpeningAngleMAC,
    build_interaction_lists,
    build_tree,
    compute_forces,
    direct_accelerations,
    evaluate_interaction_lists,
    total_energy,
    traversal,
    tree_accelerations,
)
from tests.test_parallel_pins import _plummer


class TestDirect:
    def test_two_body_force(self):
        pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        m = np.array([1.0, 2.0])
        res = direct_accelerations(pos, m, G=1.0)
        # a0 = G m1 / r^2 toward +x; a1 = G m0 / r^2 toward -x.
        assert np.allclose(res.accelerations[0], [2.0, 0.0, 0.0])
        assert np.allclose(res.accelerations[1], [-1.0, 0.0, 0.0])

    def test_two_body_potential(self):
        pos = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        m = np.array([3.0, 5.0])
        res = direct_accelerations(pos, m)
        assert res.potentials[0] == pytest.approx(-5.0 / 2.0)
        assert res.potentials[1] == pytest.approx(-3.0 / 2.0)
        assert res.potential_energy(m) == pytest.approx(-3.0 * 5.0 / 2.0)

    def test_momentum_conservation(self):
        pos, m = _plummer(200, seed=1)
        res = direct_accelerations(pos, m, eps=0.01)
        net = (m[:, None] * res.accelerations).sum(axis=0)
        assert np.allclose(net, 0.0, atol=1e-12)

    def test_softening_caps_close_forces(self):
        pos = np.array([[0.0, 0.0, 0.0], [1e-8, 0.0, 0.0]])
        m = np.ones(2)
        res = direct_accelerations(pos, m, eps=0.1)
        assert np.abs(res.accelerations).max() < 1.0 / 0.1**2

    def test_blocked_equals_unblocked(self):
        pos, m = _plummer(150, seed=2)
        a = direct_accelerations(pos, m, eps=0.01, block=7)
        b = direct_accelerations(pos, m, eps=0.01, block=1024)
        assert np.allclose(a.accelerations, b.accelerations)
        assert np.allclose(a.potentials, b.potentials)

    def test_coincident_particles_no_nan(self):
        pos = np.zeros((3, 3))
        res = direct_accelerations(pos, np.ones(3), eps=0.0)
        assert np.isfinite(res.accelerations).all()
        assert np.allclose(res.accelerations, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            direct_accelerations(np.zeros((2, 2)), np.ones(2))
        with pytest.raises(ValueError):
            direct_accelerations(np.zeros((2, 3)), np.ones(3))
        with pytest.raises(ValueError):
            direct_accelerations(np.zeros((2, 3)), np.ones(2), eps=-1.0)


class TestTreeAccuracy:
    def test_converges_to_direct_as_theta_shrinks(self):
        pos, m = _plummer(400, seed=3)
        exact = direct_accelerations(pos, m, eps=0.05)
        errs = []
        for theta in (1.0, 0.6, 0.3):
            approx = tree_accelerations(pos, m, theta=theta, eps=0.05)
            num = np.linalg.norm(approx.accelerations - exact.accelerations, axis=1)
            den = np.linalg.norm(exact.accelerations, axis=1)
            errs.append(float(np.median(num / den)))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 2e-4

    def test_typical_theta_accuracy(self):
        # theta=0.6 with quadrupoles should give ~1e-4 median relative
        # error — the "force errors are exceeded by time integration
        # error" regime the paper describes.
        pos, m = _plummer(600, seed=4)
        exact = direct_accelerations(pos, m, eps=0.05)
        approx = tree_accelerations(pos, m, theta=0.6, eps=0.05)
        num = np.linalg.norm(approx.accelerations - exact.accelerations, axis=1)
        den = np.linalg.norm(exact.accelerations, axis=1)
        assert np.median(num / den) < 1e-3

    def test_tiny_system_exact(self):
        # With everything in one leaf the treecode IS direct summation.
        pos, m = _plummer(20, seed=5)
        exact = direct_accelerations(pos, m, eps=0.01)
        approx = tree_accelerations(pos, m, theta=0.5, eps=0.01, bucket_size=32)
        assert np.allclose(approx.accelerations, exact.accelerations)
        assert np.allclose(approx.potentials, exact.potentials)

    def test_potential_matches_direct(self):
        pos, m = _plummer(300, seed=6)
        exact = direct_accelerations(pos, m, eps=0.05)
        approx = tree_accelerations(pos, m, theta=0.4, eps=0.05)
        assert np.allclose(approx.potentials, exact.potentials, rtol=2e-3, atol=1e-6)

    def test_interaction_counts_scale_sub_quadratically(self):
        # The O(N log N) claim: the interaction fraction of the full
        # N^2 must fall as N grows, and be far below 1 at modest N.
        rng = np.random.default_rng(7)
        fractions = []
        for n in (1000, 4000):
            pos = rng.random((n, 3))
            m = np.full(n, 1.0 / n)
            res = tree_accelerations(pos, m, theta=0.7, eps=0.01, bucket_size=16)
            total = res.counts.p2p + res.counts.p2c
            fractions.append(total / (n * (n - 1)))
            assert res.counts.flops > 0
        assert fractions[1] < 0.5 * fractions[0]
        assert fractions[1] < 0.15

    def test_absolute_error_mac(self):
        pos, m = _plummer(300, seed=8)
        exact = direct_accelerations(pos, m, eps=0.05)
        budget = 1e-3 * np.linalg.norm(exact.accelerations, axis=1).mean()
        approx = tree_accelerations(pos, m, eps=0.05, mac=AbsoluteErrorMAC(budget))
        err = np.linalg.norm(approx.accelerations - exact.accelerations, axis=1)
        assert err.max() < 10 * budget  # bound is conservative

    def test_bucket_size_does_not_change_physics(self):
        pos, m = _plummer(250, seed=9)
        a = tree_accelerations(pos, m, theta=0.4, eps=0.05, bucket_size=8)
        b = tree_accelerations(pos, m, theta=0.4, eps=0.05, bucket_size=64)
        rel = np.linalg.norm(a.accelerations - b.accelerations, axis=1) / (
            np.linalg.norm(b.accelerations, axis=1) + 1e-30
        )
        assert np.median(rel) < 1e-3

    def test_results_in_input_order(self):
        # Shuffling the input must shuffle the output identically.
        pos, m = _plummer(200, seed=10)
        res = tree_accelerations(pos, m, theta=0.5, eps=0.05)
        perm = np.random.default_rng(0).permutation(200)
        res_p = tree_accelerations(pos[perm], m[perm], theta=0.5, eps=0.05)
        assert np.allclose(res_p.accelerations, res.accelerations[perm])

    def test_mac_validation(self):
        with pytest.raises(ValueError):
            OpeningAngleMAC(theta=0.0)
        with pytest.raises(ValueError):
            AbsoluteErrorMAC(max_error=0.0)

    @pytest.mark.parametrize("eps", [np.nan, np.inf, -0.01])
    def test_bad_softening_is_refused_before_any_walk(self, eps, monkeypatch):
        tree = build_tree(np.random.default_rng(2).random((300, 3)))
        lists = build_interaction_lists(tree)

        def walked(*args):
            raise AssertionError("walked before refusing eps")

        monkeypatch.setattr(traversal, "_lists", walked)
        monkeypatch.setattr(traversal, "_fork_join", walked)
        with pytest.raises(ValueError, match="softening eps must be finite and non-negative"):
            compute_forces(tree, eps=eps)
        with pytest.raises(ValueError, match="softening eps must be finite and non-negative"):
            evaluate_interaction_lists(tree, lists, eps=eps)
        with pytest.raises(ValueError, match="softening eps must be finite and non-negative"):
            tree_accelerations(tree.positions, eps=eps)

    def test_nan_mass_is_refused_not_summed(self):
        m = np.full(300, 1.0 / 300)
        m[7] = np.nan
        with pytest.raises(ValueError, match="masses must be finite"):
            tree_accelerations(np.random.default_rng(2).random((300, 3)), m, eps=0.01)


class TestEnergy:
    def test_total_energy_components(self):
        pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        vel = np.array([[0.0, 0.5, 0.0], [0.0, -0.5, 0.0]])
        m = np.ones(2)
        ke, pe, te = total_energy(pos, vel, m)
        assert ke == pytest.approx(0.25)
        assert pe == pytest.approx(-1.0)
        assert te == pytest.approx(-0.75)
