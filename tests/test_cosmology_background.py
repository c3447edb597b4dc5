"""Tests for cosmology background, power spectrum, and ICs."""

import functools
import math

import numpy as np
import pytest

from repro.cosmology import (
    EDS,
    LCDM,
    Cosmology,
    PowerSpectrum,
    background,
    bbks_transfer,
    gaussian_field,
    power,
    tophat_window,
    zeldovich_ics,
)
from tests.test_parallel_pins import _digest

OPEN_LAMBDA = Cosmology(omega_m=0.25, omega_l=0.75, sigma8=0.8, n_s=0.96)


def _rel(value, exact):
    return abs(value / exact - 1.0)


def _lcdm_age_gyr(c, a):
    """Flat LCDM age in closed form."""
    x = math.sqrt(c.omega_l / c.omega_m) * a**1.5
    return 2.0 / (3.0 * math.sqrt(c.omega_l)) * math.asinh(x) * c.hubble_time_gyr()


def closed_form_error():
    """Largest relative error of D(a) and t(a) against their closed forms:
    EdS ``D = a`` and ``t = 2/3 t_H a^1.5``, and the flat-LCDM age."""
    errors = [_rel(EDS.growth_factor(a), a) for a in (0.01, 0.1, 0.3, 0.7, 1.0, 2.0)]
    errors += [_rel(EDS.age_gyr(a), 2.0 / 3.0 * EDS.hubble_time_gyr() * a**1.5)
               for a in (0.1, 1.0)]
    errors += [_rel(c.age_gyr(a), _lcdm_age_gyr(c, a))
               for c in (LCDM, OPEN_LAMBDA) for a in (0.05, 0.5, 1.0, 2.0)]
    return max(errors)


@functools.cache
def _growth_references():
    """``(cosmology, a, int_0^a da / (a E)^3)`` by a tight adaptive
    quadrature in ``a`` itself.  Rule-free, so computed once for every
    test, planted bugs included."""
    quad = pytest.importorskip("scipy.integrate").quad
    return [(c, a, quad(lambda x: (x * math.sqrt(c.omega_m / x**3 + c.omega_l)) ** -3,
                        0.0, a, epsabs=0.0, epsrel=1e-13, limit=200)[0])
            for c in (LCDM, OPEN_LAMBDA, EDS) for a in (0.05, 0.3, 1.0, 2.0)]


@functools.cache
def _tophat_references():
    """``(cosmology, gamma, R, sigma^2(R))``, R in {1, 8, 20} Mpc/h, by a
    tight adaptive quadrature over the rule's ln k range of the BBKS
    spectrum and top-hat window written out in scalar ``math``.  The
    integrand and ``gamma`` do not depend on the rule, so computed once."""
    quad = pytest.importorskip("scipy.integrate").quad
    out = []
    for c in (LCDM, OPEN_LAMBDA):
        gamma, _ = power._shape_and_norm(c)
        for r in (1.0, 8.0, 20.0):
            def integrand(lnk):
                k = math.exp(lnk)
                q = k / gamma
                t = (math.log1p(2.34 * q) / (2.34 * q)
                     * (1.0 + 3.89 * q + (16.1 * q)**2 + (5.46 * q)**3 + (6.71 * q)**4) ** -0.25)
                x = k * r
                w = 1.0 - x * x / 10.0 if x < 1e-4 else 3.0 * (math.sin(x) - x * math.cos(x)) / x**3
                return k**3 * k**c.n_s * (t * w) ** 2 / (2.0 * math.pi**2)

            exact, _ = quad(integrand, math.log(1e-5), math.log(1e3),
                            epsabs=0.0, epsrel=1e-12, limit=5000)
            out.append((c, gamma, r, exact))
    return out


def growth_quad_error():
    """Largest relative error of the growth integral against its references."""
    return max(_rel(background._growth_integral(c, a), exact)
               for c, a, exact in _growth_references())


def tophat_quad_error():
    """Largest relative error of sigma^2(R) against its references."""
    return max(_rel(power._tophat_variance(c.n_s, gamma, 1.0, r), exact)
               for c, gamma, r, exact in _tophat_references())


_RULE = background.gauss_legendre


def _rule_without_jacobian(f, lo, hi, panels):
    """Planted bug: the rule with the half-width factor dropped."""
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    x = edges[:-1, None] + half * (1.0 + background._GL_NODES)
    return float(np.sum(background._GL_WEIGHTS * f(x)))


def _rule_on_one_panel(f, lo, hi, panels):
    """Planted bug: the panel count ignored."""
    return _RULE(f, lo, hi, 1)


@pytest.fixture
def fresh_memos():
    """The memoised integrals start and end empty, so no test sees
    another's (or a planted bug's) values."""
    memos = (background._growth_integral, power._shape_and_norm)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


class TestQuadratureOracles:
    """The growth, age and sigma^2 integrals against closed forms and an
    independent adaptive quadrature; each oracle trips on a planted bug."""

    def test_closed_forms(self, fresh_memos):
        assert closed_form_error() <= 1e-12

    def test_growth_integral_against_quad(self, fresh_memos):
        assert growth_quad_error() <= 1e-12

    def test_tophat_variance_against_quad(self, fresh_memos):
        assert tophat_quad_error() <= 1e-9

    @pytest.mark.parametrize("bug", [_rule_without_jacobian, _rule_on_one_panel],
                             ids=["no_jacobian", "one_panel"])
    def test_a_planted_bug_trips_every_oracle(self, bug, monkeypatch, fresh_memos):
        for module in (background, power):
            monkeypatch.setattr(module, "gauss_legendre", bug)
        assert closed_form_error() > 1e-6
        assert growth_quad_error() > 1e-6
        assert tophat_quad_error() > 1e-6


class TestBackground:
    def test_eds_growth_is_scale_factor(self):
        for a in (0.1, 0.3, 0.7, 1.0):
            assert EDS.growth_factor(a) == pytest.approx(a, rel=1e-12)

    def test_lcdm_growth_suppressed(self):
        # Lambda suppresses late growth: D(a) > a for a < 1.
        assert LCDM.growth_factor(0.5) > 0.5
        assert LCDM.growth_factor(1.0) == pytest.approx(1.0)

    def test_age_of_universe(self):
        # Concordance LCDM: ~13.5 Gyr.
        assert LCDM.age_gyr() == pytest.approx(13.5, abs=0.2)

    def test_lookback_to_z03_matches_figure7(self):
        # Fig 7: z = 0.3 is "3.5 billion years prior to the present".
        assert LCDM.lookback_gyr(0.3) == pytest.approx(3.5, abs=0.15)

    def test_eds_age(self):
        # EdS: t0 = (2/3)/H0.
        assert EDS.age_gyr() == pytest.approx(2.0 / 3.0 * EDS.hubble_time_gyr(), rel=1e-12)

    def test_hubble_rate_limits(self):
        assert LCDM.e_of_a(1.0) == pytest.approx(1.0)
        assert LCDM.e_of_a(0.1) == pytest.approx(np.sqrt(0.3 / 1e-3 + 0.7), rel=1e-9)

    def test_omega_m_evolution(self):
        # Matter dominates early.
        assert LCDM.omega_m_of_a(0.05) > 0.99
        assert LCDM.omega_m_of_a(1.0) == pytest.approx(0.3)

    def test_growth_rate_approximation(self):
        assert EDS.growth_rate(0.5) == pytest.approx(1.0)
        assert 0.4 < LCDM.growth_rate(1.0) < 0.6

    def test_validation(self):
        with pytest.raises(ValueError):
            Cosmology(omega_m=0.3, omega_l=0.5)
        with pytest.raises(ValueError):
            Cosmology(h=-1.0)
        with pytest.raises(ValueError):
            LCDM.growth_factor(0.0)
        with pytest.raises(ValueError):
            LCDM.lookback_gyr(-1.0)


class TestPowerSpectrum:
    def test_sigma8_normalization(self):
        ps = PowerSpectrum(LCDM)
        # The amplitude's integral and this one differ only by the
        # amplitude, so a converged rule agrees to rounding.
        assert np.sqrt(ps.sigma_r(8.0)) == pytest.approx(LCDM.sigma8, rel=1e-12)

    def test_transfer_limits(self):
        # T -> 1 at large scales, falls steeply at small scales.
        t = bbks_transfer(np.array([1e-5, 10.0]), gamma=0.2)
        assert t[0] == pytest.approx(1.0, rel=1e-3)
        assert t[1] < 1e-3

    def test_transfer_monotone(self):
        k = np.logspace(-4, 2, 200)
        t = bbks_transfer(k, 0.2)
        assert np.all(np.diff(t) < 0)

    def test_spectrum_grows_with_a(self):
        ps = PowerSpectrum(LCDM)
        k = np.array([0.1])
        assert ps(k, a=1.0)[0] > ps(k, a=0.5)[0]

    def test_spectrum_turnover(self):
        # P(k) rises as k^ns at large scale and falls past the peak.
        ps = PowerSpectrum(LCDM)
        k = np.array([1e-4, 2e-2, 10.0])
        p = ps(k)
        assert p[1] > p[0] and p[1] > p[2]

    def test_variance_decreases_with_radius(self):
        ps = PowerSpectrum(LCDM)
        assert ps.sigma_r(4.0) > ps.sigma_r(8.0) > ps.sigma_r(16.0)

    def test_window_limits(self):
        assert tophat_window(np.array([0.0]))[0] == pytest.approx(1.0)
        assert abs(tophat_window(np.array([50.0]))[0]) < 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            bbks_transfer(np.array([-1.0]), 0.2)
        with pytest.raises(ValueError):
            bbks_transfer(np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            PowerSpectrum(LCDM).sigma_r(0.0)


class TestInitialConditions:
    def test_shapes_and_bounds(self):
        ics = zeldovich_ics(n_side=8, seed=1)
        assert ics.positions.shape == (512, 3)
        assert ics.velocities.shape == (512, 3)
        assert np.all((ics.positions >= 0) & (ics.positions < 1))

    def test_displacement_grows_with_a_start(self):
        early = zeldovich_ics(n_side=8, a_start=0.02, seed=2)
        late = zeldovich_ics(n_side=8, a_start=0.2, seed=2)
        assert late.rms_displacement() > early.rms_displacement()

    def test_mean_field_zero(self):
        ics = zeldovich_ics(n_side=12, seed=3)
        assert abs(ics.delta_grid.mean()) < 1e-10

    def test_field_amplitude_tracks_power(self):
        # Deeper sigma8 -> proportionally larger field rms.
        lo = Cosmology(sigma8=0.5)
        hi = Cosmology(sigma8=1.0)
        f_lo, _ = gaussian_field(16, 125.0, PowerSpectrum(lo), 1.0, seed=4)
        f_hi, _ = gaussian_field(16, 125.0, PowerSpectrum(hi), 1.0, seed=4)
        ratio = f_hi.std() / f_lo.std()
        assert ratio == pytest.approx(2.0, rel=1e-6)

    def test_seed_reproducibility(self):
        a = zeldovich_ics(n_side=8, seed=5)
        b = zeldovich_ics(n_side=8, seed=5)
        assert np.array_equal(a.positions, b.positions)
        c = zeldovich_ics(n_side=8, seed=6)
        assert not np.array_equal(a.positions, c.positions)

    def test_k_cut_removes_small_scale_power(self):
        full = zeldovich_ics(n_side=16, seed=7, k_cut_fraction=1.0)
        cut = zeldovich_ics(n_side=16, seed=7, k_cut_fraction=0.4)
        assert cut.delta_grid.std() < full.delta_grid.std()

    #: blake2b digests of (positions, velocities, delta_grid), written
    #: when ``zeldovich_ics`` drew the whole Gaussian field twice.
    ICS_PINS = [
        (dict(n_side=8, seed=5),
         ("42a2001d3ec23fe6265daa33e2be7c63", "f3ac821a376d727ae6753a2ea41e45f2",
          "758833836555cd2aadcc3abaed522ec3")),
        (dict(n_side=12, seed=3, a_start=0.1, k_cut_fraction=0.5),
         ("67ae5ca5bc414c098d468134f9c7f73b", "82513e958667e1eddb4b94ad4af5d897",
          "f33a18b9f2d5cb34b1f30853272071a7")),
        (dict(n_side=18, seed=701, box_mpc_h=100.0),
         ("10978e353d0d805c73670e55300ad938", "76fa7db72d0c824a206212965bd1977d",
          "012803d02722d67fc1015e64e1cdb51b")),
    ]

    @pytest.mark.parametrize("kwargs,pins", ICS_PINS, ids=["n8", "n12-cut", "n18"])
    def test_ics_pinned(self, kwargs, pins):
        ics = zeldovich_ics(**kwargs)
        seen = tuple(_digest([a]) for a in (ics.positions, ics.velocities, ics.delta_grid))
        assert seen == pins

    def test_gaussian_field_pinned(self):
        delta, psi = gaussian_field(16, 125.0, PowerSpectrum(LCDM), 0.5, seed=4,
                                    k_cut_fraction=0.7)
        assert (_digest([delta]), _digest([psi])) == (
            "97808d387abc523596ab28bf8f2751ef", "aaa37336d1390cf1d4abf397cb54df8b")

    def test_validation(self):
        with pytest.raises(ValueError):
            zeldovich_ics(n_side=1)
        with pytest.raises(ValueError):
            zeldovich_ics(a_start=1.5)
        with pytest.raises(ValueError):
            zeldovich_ics(k_cut_fraction=0.0)
