"""The three per-process memos: growth integral, sigma8 amplitude,
Lane-Emden profile.

They exist so an ensemble pays once for what its scenarios share, and
they may change nothing else: the same floats cached or not, no caller
able to spoil what the next one gets, non-finite arguments refused by
name before they become keys, and a fixed bound on what is kept.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cosmology import LCDM, Cosmology, PowerSpectrum
from repro.cosmology import background, power
from repro.sph import collapse, lane_emden, polytrope_particles

OPEN_LAMBDA = Cosmology(omega_m=0.25, omega_l=0.75, sigma8=0.8, n_s=0.96)


class TestBitIdentity:
    @given(a=st.floats(min_value=0.01, max_value=2.0),
           cosmology=st.sampled_from([LCDM, OPEN_LAMBDA]))
    @settings(max_examples=25, deadline=None)
    def test_growth_factor_cached_equals_recomputed(self, a, cosmology):
        background._growth_integral.cache_clear()
        fresh = cosmology.growth_factor(a)
        hits = background._growth_integral.cache_info().hits
        assert cosmology.growth_factor(a) == fresh
        assert background._growth_integral.cache_info().hits == hits + 2

    def test_amplitude_cached_equals_recomputed(self):
        power._shape_and_norm.cache_clear()
        fresh = PowerSpectrum(OPEN_LAMBDA)
        again = PowerSpectrum(OPEN_LAMBDA)
        assert power._shape_and_norm.cache_info().hits == 1
        assert (again.gamma, again._norm) == (fresh.gamma, fresh._norm)

    def test_lane_emden_cached_equals_recomputed(self):
        collapse._lane_emden.cache_clear()
        fresh = lane_emden(1.5)
        again = lane_emden(1.5)
        assert collapse._lane_emden.cache_info().hits == 1
        assert fresh[2:] == again[2:]
        assert all(np.array_equal(x, y) for x, y in zip(fresh[:2], again[:2]))


class TestSharedResultsCannotBeSpoiled:
    def test_lane_emden_arrays_are_read_only(self):
        xis, thetas, _, _ = lane_emden(3.0)
        for shared in (xis, thetas):
            with pytest.raises(ValueError, match="read-only"):
                shared[0] = -1.0
        assert lane_emden(3.0)[1][0] == pytest.approx(1.0, abs=1e-6)

    def test_sampling_leaves_the_shared_profile_alone(self):
        before = lane_emden(3.0)[1].copy()
        polytrope_particles(64, 3.0, seed=1)
        assert np.array_equal(lane_emden(3.0)[1], before)


class TestNonFiniteArgumentsAreRefusedByName:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["n_poly", "dxi", "xi_max"])
    def test_lane_emden(self, name, bad):
        before = collapse._lane_emden.cache_info()
        with pytest.raises(ValueError, match=name):
            lane_emden(**{name: bad})
        assert collapse._lane_emden.cache_info() == before

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.5])
    def test_growth_factor(self, bad):
        before = background._growth_integral.cache_info()
        with pytest.raises(ValueError, match="scale factor a "):
            LCDM.growth_factor(bad)
        assert background._growth_integral.cache_info() == before


class TestBounded:
    def test_growth_integral(self):
        size = background.GROWTH_MEMO_SIZE
        for i in range(2 * size):  # short intervals: a few integrand calls each
            background._growth_integral(LCDM, 1e-8 * (2.0 + i))
        assert background._growth_integral.cache_info().currsize <= size
        assert background._growth_integral.cache_info().maxsize == size

    def test_amplitude(self):
        size = power.NORM_MEMO_SIZE
        for i in range(2 * size):
            PowerSpectrum(Cosmology(sigma8=0.5 + 0.005 * i))
        assert power._shape_and_norm.cache_info().currsize <= size
        assert power._shape_and_norm.cache_info().maxsize == size

    def test_lane_emden(self):
        size = collapse.LANE_EMDEN_MEMO_SIZE
        for i in range(2 * size):  # n = 0 at a coarse step: ~25 steps each
            lane_emden(0.0, dxi=0.1 + 0.001 * i)
        assert collapse._lane_emden.cache_info().currsize <= size
        assert collapse._lane_emden.cache_info().maxsize == size
