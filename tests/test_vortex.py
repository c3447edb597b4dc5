"""Tests for repro.vortex: Biot-Savart on the tree."""

import hashlib

import numpy as np
import pytest

from repro.vortex import (
    VortexSystem,
    direct_velocities,
    ring_centroid,
    ring_radius,
    ring_speed_kelvin,
    tree_velocities,
    vortex_ring,
    wl_kernel,
)


def _random_blob(n, seed=0):
    rng = np.random.default_rng(seed)
    pos = rng.standard_normal((n, 3)) * 0.5
    alphas = rng.standard_normal((n, 3)) * 0.1
    return pos, alphas


class TestKernel:
    def test_far_field_limit(self):
        # K_sigma -> 1/r^3 for r >> sigma.
        r2 = np.array([100.0])
        assert wl_kernel(r2, 0.05)[0] == pytest.approx(1.0 / 1000.0, rel=1e-3)

    def test_regular_at_origin(self):
        k = wl_kernel(np.array([0.0]), 0.1)
        assert np.isfinite(k[0])
        assert k[0] == pytest.approx(2.5 * 0.01 / 0.1**5)

    def test_monotone_decreasing(self):
        r2 = np.linspace(0, 4, 500)
        k = wl_kernel(r2, 0.1)
        assert np.all(np.diff(k) < 0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            wl_kernel(np.array([1.0]), -0.1)


class TestDirect:
    def test_single_particle_induces_no_self_velocity(self):
        pos = np.array([[0.0, 0.0, 0.0]])
        alpha = np.array([[0.0, 0.0, 1.0]])
        u = direct_velocities(pos, alpha, sigma=0.1)
        assert np.allclose(u, 0.0)  # r x alpha = 0 at r = 0

    def test_velocity_of_vortex_line(self):
        # Particles along z approximating an infinite line vortex of
        # circulation Gamma: azimuthal speed Gamma/(2 pi rho).
        n = 2001
        z = np.linspace(-50, 50, n)
        dz = z[1] - z[0]
        pos = np.column_stack([np.zeros(n), np.zeros(n), z])
        gamma = 2.0
        alphas = np.column_stack([np.zeros(n), np.zeros(n), np.full(n, gamma * dz)])
        target = np.array([[1.5, 0.0, 0.0]])
        u = direct_velocities(pos, alphas, target, sigma=0.01)
        expected = gamma / (2.0 * np.pi * 1.5)
        assert u[0, 1] == pytest.approx(expected, rel=1e-3)  # +y (right-handed)
        assert abs(u[0, 0]) < 1e-10 and abs(u[0, 2]) < 1e-10

    def test_blockwise_consistency(self):
        pos, alphas = _random_blob(300, seed=1)
        a = direct_velocities(pos, alphas, block=7)
        b = direct_velocities(pos, alphas, block=1024)
        assert np.allclose(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            direct_velocities(np.zeros((3, 2)), np.zeros((3, 2)))


class TestTree:
    def test_matches_direct(self):
        pos, alphas = _random_blob(800, seed=2)
        exact = direct_velocities(pos, alphas, sigma=0.05)
        approx = tree_velocities(pos, alphas, sigma=0.05, theta=0.4)
        num = np.linalg.norm(approx - exact, axis=1)
        den = np.linalg.norm(exact, axis=1) + 1e-30
        assert np.median(num / den) < 5e-3

    def test_converges_with_theta(self):
        pos, alphas = _random_blob(500, seed=3)
        exact = direct_velocities(pos, alphas, sigma=0.05)
        errs = []
        for theta in (0.9, 0.6, 0.3):
            approx = tree_velocities(pos, alphas, sigma=0.05, theta=theta)
            errs.append(float(np.median(
                np.linalg.norm(approx - exact, axis=1) / (np.linalg.norm(exact, axis=1) + 1e-30)
            )))
        assert errs[0] > errs[2]

    def test_input_order_preserved(self):
        pos, alphas = _random_blob(200, seed=4)
        u = tree_velocities(pos, alphas)
        perm = np.random.default_rng(0).permutation(200)
        u_p = tree_velocities(pos[perm], alphas[perm])
        assert np.allclose(u_p, u[perm])

    @pytest.mark.parametrize("fixture, theta, digest", [
        ("blob", 0.45, "95f339d284dfe15f8d83d9105bcf932b"),
        ("blob", 0.8, "66048f1b4b2bb4029be39a5d6f6caf34"),
        ("ring", 0.45, "16afb0e0fba6cfa33d6e4f35d8f938d5"),
        ("ring", 0.8, "378e42a687757156918eacb7ea4cc0d3"),
    ])
    def test_pinned_bits(self, fixture, theta, digest):
        # Written when the per-group lists came from the reference
        # walker's ``_collect_lists``; the batched walk must reproduce
        # its velocities bit for bit.
        if fixture == "blob":
            pos, alphas = _random_blob(900, seed=7)
            sigma = 0.05
        else:
            ring = vortex_ring(400, sigma=0.1)
            pos, alphas, sigma = ring.positions, ring.alphas, ring.sigma
        u = tree_velocities(pos, alphas, sigma=sigma, theta=theta)
        assert hashlib.blake2b(u.tobytes(), digest_size=16).hexdigest() == digest

    def test_validation(self):
        with pytest.raises(ValueError):
            tree_velocities(np.zeros((3, 3)), np.zeros((4, 3)))
        with pytest.raises(ValueError):
            VortexSystem(np.zeros((3, 3)), np.zeros((3, 3)), sigma=0.0)


class TestVortexRing:
    def test_kelvin_speed_formula(self):
        assert ring_speed_kelvin(1.0, 1.0, 0.1) == pytest.approx(
            (np.log(80.0) - 0.25) / (4.0 * np.pi)
        )
        with pytest.raises(ValueError):
            ring_speed_kelvin(1.0, 1.0, 2.0)

    def test_ring_total_circulation_zero(self):
        # A closed loop's circulation vectors sum to zero.
        ring = vortex_ring(64)
        assert np.allclose(ring.total_circulation, 0.0, atol=1e-12)

    def test_ring_impulse_along_axis(self):
        # Linear impulse of a ring: (Gamma pi R^2) z_hat.
        ring = vortex_ring(128, gamma=2.0, radius=1.5)
        impulse = ring.linear_impulse
        assert impulse[2] == pytest.approx(2.0 * np.pi * 1.5**2, rel=1e-3)
        assert abs(impulse[0]) < 1e-12 and abs(impulse[1]) < 1e-12

    def test_ring_translates_at_kelvin_like_speed(self):
        ring = vortex_ring(96, gamma=1.0, radius=1.0, sigma=0.1)
        z0 = ring_centroid(ring)[2]
        r0 = ring_radius(ring)
        dt = 0.05
        for _ in range(8):
            ring.step(dt, theta=0.4)
        z1 = ring_centroid(ring)[2]
        speed = (z1 - z0) / (8 * dt)
        kelvin = ring_speed_kelvin(1.0, 1.0, 0.1)
        # Discrete rings with algebraic cores travel near, not exactly
        # at, the thin-core formula; demand the right sign and 40%.
        assert speed > 0
        assert speed == pytest.approx(kelvin, rel=0.4)
        # The ring stays a ring.
        assert ring_radius(ring) == pytest.approx(r0, rel=0.05)

    def test_step_conserves_circulation(self):
        ring = vortex_ring(48)
        before = ring.alphas.copy()
        ring.step(0.05)
        assert np.array_equal(ring.alphas, before)

    def test_validation(self):
        with pytest.raises(ValueError):
            vortex_ring(4)
        ring = vortex_ring(16)
        with pytest.raises(ValueError):
            ring.step(0.0)
