"""Tests for repro.core.domain: work-weighted decomposition (Fig 6)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    decompose,
    morton_traversal_order_2d,
    sample_splitters,
    split_weighted,
)
from repro.core.domain import pick_splitters


class TestSplitWeighted:
    def test_uniform_work_even_split(self):
        bounds = split_weighted(np.ones(100), 4)
        assert bounds.tolist() == [0, 25, 50, 75, 100]

    def test_single_piece(self):
        bounds = split_weighted(np.ones(10), 1)
        assert bounds.tolist() == [0, 10]

    def test_skewed_work_balances_by_work_not_count(self):
        work = np.concatenate([np.full(10, 100.0), np.full(90, 1.0)])
        bounds = split_weighted(work, 2)
        cum = np.concatenate([[0.0], np.cumsum(work)])
        halves = cum[bounds[1:]] - cum[bounds[:-1]]
        # Each half within one max item of the ideal share.
        assert abs(halves[0] - halves[1]) <= work.max()

    def test_zero_work_falls_back_to_count(self):
        bounds = split_weighted(np.zeros(12), 3)
        assert bounds.tolist() == [0, 4, 8, 12]

    def test_more_pieces_than_items(self):
        bounds = split_weighted(np.ones(3), 8)
        assert bounds[0] == 0 and bounds[-1] == 3
        assert np.all(np.diff(bounds) >= 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            split_weighted(np.ones(5), 0)
        with pytest.raises(ValueError):
            split_weighted(-np.ones(5), 2)
        with pytest.raises(ValueError):
            split_weighted(np.ones((2, 2)), 2)

    @given(
        st.lists(st.floats(0.0, 100.0), min_size=1, max_size=500),
        st.integers(1, 16),
    )
    @settings(max_examples=50, deadline=None)
    def test_properties(self, work_list, n_pieces):
        work = np.array(work_list)
        bounds = split_weighted(work, n_pieces)
        assert bounds.size == n_pieces + 1
        assert bounds[0] == 0 and bounds[-1] == work.size
        assert np.all(np.diff(bounds) >= 0)
        if work.sum() > 0:
            cum = np.concatenate([[0.0], np.cumsum(work)])
            shares = cum[bounds[1:]] - cum[bounds[:-1]]
            ideal = work.sum() / n_pieces
            assert shares.max() <= ideal + work.max() + 1e-9


class TestDecompose:
    def test_pieces_cover_all_particles(self):
        rng = np.random.default_rng(0)
        pos = rng.random((1000, 3))
        dd = decompose(pos, n_pieces=7)
        assert dd.counts().sum() == 1000
        assert dd.n_pieces == 7

    def test_work_shares_near_one(self):
        rng = np.random.default_rng(1)
        pos = rng.random((2000, 3))
        work = rng.random(2000) + 0.5
        dd = decompose(pos, work, n_pieces=8)
        assert np.all(np.abs(dd.work_shares() - 1.0) < 0.05)

    def test_pieces_are_key_contiguous(self):
        rng = np.random.default_rng(2)
        pos = rng.random((500, 3))
        dd = decompose(pos, n_pieces=4)
        for p in range(4):
            sl = dd.piece(p)
            if sl.stop > sl.start and sl.stop < 500:
                assert dd.keys[sl.stop - 1] <= dd.keys[sl.stop]

    def test_owner_of(self):
        rng = np.random.default_rng(3)
        dd = decompose(rng.random((100, 3)), n_pieces=5)
        for p in range(5):
            sl = dd.piece(p)
            if sl.stop > sl.start:
                assert dd.owner_of(sl.start) == p
                assert dd.owner_of(sl.stop - 1) == p

    def test_piece_out_of_range(self):
        dd = decompose(np.random.default_rng(4).random((10, 3)), n_pieces=2)
        with pytest.raises(ValueError):
            dd.piece(2)

    def test_clustered_particles_balanced_by_work(self):
        # Centrally condensed cloud with work ~ local density proxy:
        # counts become uneven but work shares stay balanced.
        rng = np.random.default_rng(5)
        r = rng.random(3000) ** 4
        d = rng.standard_normal((3000, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        pos = 0.5 + 0.4 * r[:, None] * d
        work = 1.0 / (r + 0.01)
        dd = decompose(pos, work, n_pieces=6)
        assert np.all(np.abs(dd.work_shares() - 1.0) < 0.1)
        assert dd.counts().max() > 1.5 * dd.counts().min()


class TestSamplingAndCurve:
    def test_sample_splitters_sorted_subset(self):
        rng = np.random.default_rng(6)
        keys = np.sort(rng.integers(2**63, 2**64, 1000, dtype=np.uint64))
        sample = sample_splitters(keys, n_pieces=4, oversample=8)
        assert np.all(np.diff(sample.astype(np.float64)) >= 0)
        assert np.isin(sample, keys).all()
        assert sample.size == 32
        # The sampler the rank program runs: evenly spaced, ends included,
        # never more picks than keys.
        assert sample[0] == keys[0] and sample[-1] == keys[-1]
        assert np.array_equal(sample_splitters(keys[:5], n_pieces=4, oversample=8), keys[:5])
        # Agreement: sentinels at both ends, balanced interior, monotone
        # even when every sample is the same key.
        halves = [sample_splitters(keys[:500], 4, 8), sample_splitters(keys[500:], 4, 8)]
        splitters = pick_splitters(halves, 4)
        assert splitters[0] == 2**63 and splitters[-1] == 2**64 and len(splitters) == 5
        assert np.all(np.abs(np.diff(np.searchsorted(keys, np.array(splitters[1:-1], dtype=np.uint64))) - 250) < 40)
        same = pick_splitters([np.full(8, keys[3])] * 2, 3)
        assert same == (2**63, int(keys[3]), int(keys[3]), 2**64)

    def test_sample_splitters_empty(self):
        out = sample_splitters(np.empty(0, dtype=np.uint64), 4)
        assert out.size == 0
        # An empty rank's sample drops out of the agreement; none at all refuses.
        one = pick_splitters([out, np.array([2**63 + 7], dtype=np.uint64)], 2)
        assert one == (2**63, 2**63 + 7, 2**64)
        with pytest.raises(ValueError, match="no particles"):
            pick_splitters([out, out], 2)

    def test_morton_curve_is_permutation(self):
        rng = np.random.default_rng(7)
        pos = rng.random((200, 2))
        order = morton_traversal_order_2d(pos)
        assert sorted(order.tolist()) == list(range(200))

    def test_curve_locality(self):
        # The Figure 6 property: consecutive curve points are near each
        # other even for centrally condensed distributions.
        rng = np.random.default_rng(8)
        r = rng.random(1000) ** 3
        ang = rng.random(1000) * 2 * np.pi
        pos = 0.5 + 0.45 * np.column_stack([r * np.cos(ang), r * np.sin(ang)])
        order = morton_traversal_order_2d(pos)
        jumps = np.linalg.norm(np.diff(pos[order], axis=0), axis=1)
        assert np.median(jumps) < 0.05
