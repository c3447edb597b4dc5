"""Tests for PM gravity, comoving evolution, FoF, and clustering."""

import numpy as np
import pytest

from repro.cosmology import (
    EDS,
    LCDM,
    PAPER_RUN,
    ComovingSimulation,
    CosmologyRunModel,
    PMSolver,
    cic_deposit,
    cic_deposit_reference,
    cic_interpolate,
    cic_interpolate_reference,
    correlation_function,
    friends_of_friends,
    friends_of_friends_reference,
    measured_power_spectrum,
    pair_counts_periodic,
    zeldovich_ics,
)


class TestCic:
    def test_deposit_conserves_mass(self):
        rng = np.random.default_rng(0)
        pos = rng.random((500, 3))
        rho = cic_deposit(pos, 16)
        assert rho.sum() == pytest.approx(500.0)

    def test_deposit_weighted(self):
        rng = np.random.default_rng(1)
        pos = rng.random((100, 3))
        w = rng.random(100)
        rho = cic_deposit(pos, 8, w)
        assert rho.sum() == pytest.approx(w.sum())

    def test_particle_at_grid_point_fills_one_cell(self):
        # CIC weight collapses to a single cell when the particle sits
        # exactly on a grid point.
        pos = np.array([[1.0 / 8, 1.0 / 8, 1.0 / 8]])
        rho = cic_deposit(pos, 8)
        assert rho[1, 1, 1] == pytest.approx(1.0)

    def test_interpolate_constant_field(self):
        field = np.full((8, 8, 8), 3.5)
        rng = np.random.default_rng(2)
        vals = cic_interpolate(field, rng.random((50, 3)))
        assert np.allclose(vals, 3.5)

    def test_deposit_interpolate_adjoint(self):
        # Interpolating the deposit of one particle at its own position
        # gives the kernel self-overlap (positive, <= full weight).
        pos = np.array([[0.37, 0.61, 0.24]])
        rho = cic_deposit(pos, 8)
        v = cic_interpolate(rho, pos)
        assert 0 < v[0] <= 1.0 * 8**0 + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            cic_deposit(np.zeros((2, 2)), 8)
        with pytest.raises(ValueError):
            cic_deposit(np.zeros((2, 3)), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_positions_refused(self, bad):
        # A NaN coordinate used to cast to a valid wrapped index: a NaN
        # cell from the deposit, a silent 0.0 from the interpolation.
        pos = np.random.default_rng(3).random((10, 3))
        pos[4, 1] = bad
        for call in (
            lambda: cic_deposit(pos, 8),
            lambda: cic_deposit_reference(pos, 8),
            lambda: cic_interpolate(np.ones((8, 8, 8)), pos),
            lambda: cic_interpolate_reference(np.ones((8, 8, 8)), pos),
            lambda: PMSolver(8).accelerations(pos),
            lambda: PMSolver(8).density_contrast(pos),
        ):
            with pytest.raises(ValueError, match="positions must be finite"):
                call()

    def test_mis_shaped_input_refused_by_name(self):
        pos = np.random.default_rng(4).random((10, 3))
        for call in (
            lambda: cic_interpolate(np.ones((8, 8, 8)), pos[:, :2]),
            lambda: cic_interpolate(np.ones((8, 8, 8)), pos[0]),
            lambda: PMSolver(8).accelerations(pos[:, :2]),
        ):
            with pytest.raises(ValueError, match=r"positions must be \(N, 3\)"):
                call()
        for field in (np.ones((8, 8, 4)), np.ones((8, 8)), np.ones((2, 8, 8, 4)),
                      np.ones((1, 2, 8, 8, 8))):
            for fn in (cic_interpolate, cic_interpolate_reference):
                with pytest.raises(ValueError, match=r"field must be \(grid, grid, grid\)"):
                    fn(field, pos)
        for weights in (np.ones(9), np.ones((10, 1)), 2.0):
            for call in (
                lambda: cic_deposit(pos, 8, weights),
                lambda: cic_deposit_reference(pos, 8, weights),
                lambda: PMSolver(8).accelerations(pos, weights),
            ):
                with pytest.raises(ValueError, match=r"weights must have shape \(N,\)"):
                    call()


class TestPMSolver:
    def test_single_mode_force_accuracy(self):
        # Displaced-lattice sine mode: the PM force must match the
        # analytic Zel'dovich value to better than a percent.
        n = 16
        g1 = (np.arange(n) + 0.5) / n
        lattice = np.stack(np.meshgrid(g1, g1, g1, indexing="ij"), axis=-1).reshape(-1, 3)
        amp = 0.002
        pos = lattice.copy()
        pos[:, 0] = np.mod(pos[:, 0] + amp * np.sin(2 * np.pi * lattice[:, 0]), 1.0)
        acc = PMSolver(n).accelerations(pos)
        expected = amp * np.sin(2 * np.pi * lattice[:, 0])
        big = np.abs(expected) > 0.3 * amp
        assert np.allclose(acc[big, 0] / expected[big], 1.0, atol=0.02)
        assert np.abs(acc[:, 1:]).max() < 0.02 * amp

    def test_uniform_lattice_no_force(self):
        n = 8
        g1 = (np.arange(n) + 0.5) / n
        lattice = np.stack(np.meshgrid(g1, g1, g1, indexing="ij"), axis=-1).reshape(-1, 3)
        acc = PMSolver(n).accelerations(lattice)
        assert np.abs(acc).max() < 1e-12

    def test_potential_solves_poisson(self):
        solver = PMSolver(16, deconvolve=False)
        x = (np.arange(16) + 0.5) / 16
        delta = np.sin(2 * np.pi * x)[:, None, None] * np.ones((1, 16, 16))
        delta -= delta.mean()
        phi = solver.potential(delta)
        # del^2 phi = delta -> phi = -delta/(2 pi)^2 for the k=1 mode.
        expected = -delta / (2 * np.pi) ** 2
        assert np.allclose(phi, expected, atol=1e-4 * np.abs(expected).max() + 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            PMSolver(2)
        with pytest.raises(ValueError):
            PMSolver(8).potential(np.zeros((4, 4, 4)))
        with pytest.raises(ValueError):
            PMSolver(8).density_contrast(np.zeros((0, 3)))


@pytest.mark.slow
class TestLinearGrowth:
    def test_eds_zeldovich_growth(self):
        # The defining validation: a Zel'dovich realization grows by
        # D(a2)/D(a1) = a2/a1 in EdS while linear.
        ics = zeldovich_ics(
            n_side=16, box_mpc_h=500.0, a_start=0.1, cosmology=EDS, seed=2, k_cut_fraction=0.5
        )
        sim = ComovingSimulation(ics)
        r0 = sim.density_rms()
        sim.run_to(0.3, dlna=0.04)
        assert sim.density_rms() / r0 == pytest.approx(3.0, rel=0.06)

    def test_lcdm_growth_tracks_growth_factor(self):
        ics = zeldovich_ics(
            n_side=16, box_mpc_h=500.0, a_start=0.1, cosmology=LCDM, seed=3, k_cut_fraction=0.5
        )
        sim = ComovingSimulation(ics)
        r0 = sim.density_rms()
        sim.run_to(0.5, dlna=0.04)
        expected = LCDM.growth_factor(0.5) / LCDM.growth_factor(0.1)
        assert sim.density_rms() / r0 == pytest.approx(expected, rel=0.08)

    def test_validation(self):
        ics = zeldovich_ics(n_side=8, seed=4)
        sim = ComovingSimulation(ics)
        with pytest.raises(ValueError):
            sim.step(dlna=0.0)
        with pytest.raises(ValueError):
            sim.run_to(ics.a_start / 2)


class TestFof:
    def test_finds_planted_clusters(self):
        rng = np.random.default_rng(5)
        centers = np.array([[0.25, 0.25, 0.25], [0.75, 0.75, 0.75]])
        blobs = [c + 0.004 * rng.standard_normal((60, 3)) for c in centers]
        field = rng.random((200, 3))
        pos = np.concatenate(blobs + [field])
        result = friends_of_friends(pos, linking_length=0.1, min_members=20)
        assert result.n_halos == 2
        found = sorted(h.n_members for h in result.halos)
        assert found[0] >= 55  # blobs recovered nearly whole

    def test_halo_centers_accurate(self):
        rng = np.random.default_rng(6)
        center = np.array([0.5, 0.5, 0.5])
        pos = center + 0.003 * rng.standard_normal((100, 3))
        result = friends_of_friends(pos, linking_length=0.2, min_members=10)
        assert result.n_halos == 1
        assert np.allclose(result.halos[0].center, center, atol=0.01)

    def test_periodic_halo_across_boundary(self):
        rng = np.random.default_rng(7)
        pos = np.mod(0.002 * rng.standard_normal((80, 3)), 1.0)  # straddles origin
        result = friends_of_friends(pos, linking_length=0.2, min_members=10)
        assert result.n_halos == 1
        # Center near a box corner (any of them).
        c = result.halos[0].center
        assert np.all((c < 0.05) | (c > 0.95))

    def test_field_particles_unassigned(self):
        rng = np.random.default_rng(8)
        pos = rng.random((100, 3))  # sparse: no halos at tight linking
        result = friends_of_friends(pos, linking_length=0.05, min_members=5)
        assert result.n_halos == 0
        assert np.all(result.group_id == -1)

    def test_masses_sorted_descending(self):
        rng = np.random.default_rng(9)
        blob1 = 0.5 + 0.003 * rng.standard_normal((90, 3))
        blob2 = 0.2 + 0.003 * rng.standard_normal((40, 3))
        result = friends_of_friends(np.concatenate([blob2, blob1]), min_members=10)
        sizes = [h.n_members for h in result.halos]
        assert sizes == sorted(sizes, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            friends_of_friends(np.zeros((5, 2)))
        with pytest.raises(ValueError):
            friends_of_friends(np.zeros((5, 3)), linking_length=0.0)

    @pytest.mark.parametrize("fof", [friends_of_friends, friends_of_friends_reference])
    @pytest.mark.parametrize(
        "spoil, match",
        [
            (lambda pos: ((pos * [1, np.nan, 1],), {}), "positions"),
            (lambda pos: ((pos + [0, 0, np.inf],), {}), "positions"),
            (lambda pos: ((pos, np.ones(len(pos) - 1)), {}), "masses"),
            (lambda pos: ((pos, np.zeros(len(pos))), {}), "masses"),
            (lambda pos: ((pos, np.full(len(pos), np.nan)), {}), "masses"),
            (lambda pos: ((pos,), {"linking_length": float("nan")}), "linking_length"),
            (lambda pos: ((pos,), {"linking_length": float("inf")}), "linking_length"),
            (lambda pos: ((pos,), {"min_members": 2.5}), "min_members"),
            (lambda pos: ((pos,), {"min_members": 0}), "min_members"),
        ],
    )
    def test_hostile_input_names_the_argument(self, fof, spoil, match):
        args, kwargs = spoil(np.random.default_rng(4).random((50, 3)))
        with pytest.raises(ValueError, match=match):
            fof(*args, **kwargs)


class TestClustering:
    def test_random_points_uncorrelated(self):
        rng = np.random.default_rng(10)
        pos = rng.random((800, 3))
        edges = np.linspace(0.05, 0.3, 8)
        _, xi = correlation_function(pos, edges)
        assert np.abs(xi).max() < 0.1

    def test_clustered_points_positive_xi_small_r(self):
        rng = np.random.default_rng(11)
        centers = rng.random((20, 3))
        pos = np.mod(
            centers[rng.integers(0, 20, 1000)] + 0.01 * rng.standard_normal((1000, 3)), 1.0
        )
        edges = np.array([0.005, 0.02, 0.2, 0.4])
        _, xi = correlation_function(pos, edges)
        assert xi[0] > 10.0  # strong small-scale clustering
        assert abs(xi[-1]) < 1.0

    def test_pair_counts_match_brute_force(self):
        rng = np.random.default_rng(12)
        pos = rng.random((100, 3))
        edges = np.linspace(0.0, 0.5, 6)
        counts = pair_counts_periodic(pos, edges)
        d = pos[:, None, :] - pos[None, :, :]
        d -= np.round(d)
        r = np.sqrt((d**2).sum(axis=2))
        iu = np.triu_indices(100, k=1)
        brute = np.histogram(r[iu], bins=edges)[0]
        assert np.array_equal(counts, brute)

    def test_measured_power_recovers_input_shape(self):
        # The Zel'dovich realization's measured P(k) should match the
        # linear input in the well-sampled band.
        from repro.cosmology import PowerSpectrum

        ics = zeldovich_ics(n_side=16, box_mpc_h=200.0, a_start=0.2, seed=13)
        k, p = measured_power_spectrum(
            ics.positions, grid=16, box_mpc_h=200.0, n_bins=6, subtract_shot_noise=False
        )
        ps = PowerSpectrum(LCDM)
        expected = ps(k, a=0.2)
        ratio = p[:3] / expected[:3]  # low-k band
        assert np.all((ratio > 0.4) & (ratio < 2.5))

    def test_validation(self):
        with pytest.raises(ValueError):
            pair_counts_periodic(np.zeros((5, 3)), np.array([0.0, 0.6]))
        with pytest.raises(ValueError):
            measured_power_spectrum(np.zeros((5, 3)), grid=2)


class TestRunModel:
    def test_total_flops_matches_paper(self):
        # Section 4.3: 10^16 flops.
        assert PAPER_RUN.total_flops == pytest.approx(1e16, rel=0.01)

    def test_wall_time_near_24_hours(self):
        assert PAPER_RUN.wall_seconds == pytest.approx(24 * 3600.0, rel=0.15)

    def test_achieved_gflops_matches_paper(self):
        # 112 Gflop/s average.
        assert PAPER_RUN.achieved_gflops == pytest.approx(112.0, rel=0.15)

    def test_peak_io_near_7_gbytes(self):
        assert PAPER_RUN.peak_io_bytes_s == pytest.approx(7e9, rel=0.01)

    def test_average_io_near_417_mbytes(self):
        assert PAPER_RUN.average_io_bytes_s == pytest.approx(417e6, rel=0.05)

    def test_several_runs_per_week(self):
        assert PAPER_RUN.runs_per_week > 3.0

    def test_validation(self):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            CosmologyRunModel(n_steps=0)
        with _pytest.raises(ValueError):
            CosmologyRunModel(io_duty_efficiency=0.0)
