"""Tests for repro.core.cellserver: the global-key-namespace data plane."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ROOT_KEY,
    BoundingBox,
    CellServer,
    build_tree,
    combine_records,
    cover_interval,
    key_interval,
    keys_from_positions,
    shift_quadrupole,
)

UNIT_BOX = BoundingBox(np.zeros(3), 1.0)
MIN_PKEY = 1 << 63
END_PKEY = 1 << 64


def _server(n, seed=0, bucket=8):
    rng = np.random.default_rng(seed)
    pos = rng.random((n, 3))
    mass = rng.random(n) + 0.1
    keys = keys_from_positions(pos, UNIT_BOX)
    order = np.argsort(keys)
    return CellServer(keys[order], pos[order], mass[order], UNIT_BOX, bucket), pos, mass


def _cover_interval_by_growth(lo: int, hi: int) -> list[int]:
    """``cover_interval`` as it was before the bit arithmetic: grow each
    block by factors of eight while it stays aligned and inside."""
    cells = []
    cur, end = lo - MIN_PKEY, hi - MIN_PKEY
    while cur < end:
        step = 1
        while cur % (step * 8) == 0 and cur + step * 8 <= end and step * 8 <= 8**21:
            step *= 8
        level = 21
        s = step
        while s > 1:
            s //= 8
            level -= 1
        cells.append((cur // step) + (1 << (3 * level)))
        cur += step
    return cells


class TestKeyInterval:
    def test_root_covers_everything(self):
        lo, hi = key_interval(ROOT_KEY)
        assert lo == MIN_PKEY and hi == END_PKEY

    def test_children_partition_parent(self):
        lo, hi = key_interval(0b1010)
        child_intervals = [key_interval((0b1010 << 3) | o) for o in range(8)]
        assert child_intervals[0][0] == lo
        assert child_intervals[-1][1] == hi
        for (a, b), (c, _) in zip(child_intervals, child_intervals[1:]):
            assert b == c


class TestCoverInterval:
    def test_full_space_is_root(self):
        assert cover_interval(MIN_PKEY, END_PKEY) == [ROOT_KEY]

    def test_single_octant(self):
        lo, hi = key_interval(0b1011)
        assert cover_interval(lo, hi) == [0b1011]

    def test_cover_is_exact_partition(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = sorted(rng.integers(MIN_PKEY, END_PKEY, 2, dtype=np.uint64).tolist())
            if a == b:
                continue
            cells = cover_interval(int(a), int(b))
            intervals = [key_interval(c) for c in cells]
            assert intervals[0][0] == a
            assert intervals[-1][1] == b
            for (x, y), (z, _) in zip(intervals, intervals[1:]):
                assert y == z

    def test_cover_is_minimal_size(self):
        # A cover never needs more than ~ 7 cells per level per side.
        rng = np.random.default_rng(1)
        for _ in range(10):
            a, b = sorted(rng.integers(MIN_PKEY, END_PKEY, 2, dtype=np.uint64).tolist())
            if a == b:
                continue
            assert len(cover_interval(int(a), int(b))) <= 2 * 7 * 21

    def test_validation(self):
        with pytest.raises(ValueError):
            cover_interval(0, 100)

    @given(st.integers(MIN_PKEY, END_PKEY), st.integers(MIN_PKEY, END_PKEY),
           st.integers(0, 21), st.integers(0, 21))
    @settings(max_examples=200, deadline=None)
    def test_bit_arithmetic_equals_the_growth_loop(self, a, b, snap_lo, snap_hi):
        # Aligned ends make the long blocks; raw ones the ragged edges.
        lo, hi = sorted(((a >> 3 * snap_lo) << 3 * snap_lo, (b >> 3 * snap_hi) << 3 * snap_hi))
        assert cover_interval(lo, hi) == _cover_interval_by_growth(lo, hi)
        assert cover_interval(lo, lo) == []
        assert cover_interval(MIN_PKEY, END_PKEY) == _cover_interval_by_growth(MIN_PKEY, END_PKEY)


class TestShiftQuadrupole:
    def test_shift_matches_recomputation(self):
        rng = np.random.default_rng(2)
        pos = rng.random((40, 3))
        mass = rng.random(40) + 0.1
        tree = build_tree(pos, mass, bucket_size=64, box=UNIT_BOX)
        com, quad, m = tree.com[0], tree.quad[0], tree.mass[0]
        # Shift expansion center to an arbitrary point by treating the
        # cell as a single child of a fictitious parent at new_com.
        new_com = np.array([2.0, -1.0, 0.5])
        shifted = shift_quadrupole(quad, m, com - new_com)
        rel = pos - new_com
        r2 = np.einsum("ij,ij->i", rel, rel)
        expect = np.empty(6)
        expect[0] = np.sum(mass * (3 * rel[:, 0] ** 2 - r2))
        expect[1] = np.sum(mass * (3 * rel[:, 1] ** 2 - r2))
        expect[2] = np.sum(mass * (3 * rel[:, 2] ** 2 - r2))
        expect[3] = np.sum(mass * 3 * rel[:, 0] * rel[:, 1])
        expect[4] = np.sum(mass * 3 * rel[:, 0] * rel[:, 2])
        expect[5] = np.sum(mass * 3 * rel[:, 1] * rel[:, 2])
        assert np.allclose(shifted, expect)

    def test_shift_keeps_traceless(self):
        quad = np.array([1.0, 2.0, -3.0, 0.5, 0.1, -0.2])
        out = shift_quadrupole(quad, 2.0, np.array([0.3, -0.4, 0.9]))
        assert out[0] + out[1] + out[2] == pytest.approx(0.0, abs=1e-12)


class TestCombineRecords:
    def test_combine_matches_direct_server_record(self):
        server, _, _ = _server(300, seed=3)
        root = server.record(ROOT_KEY, with_particles=False)
        kids = [
            server.record((ROOT_KEY << 3) | o, with_particles=False)
            for o in range(8)
        ]
        kids = [k for k in kids if k.count > 0]
        merged = combine_records(ROOT_KEY, kids)
        assert merged.count == root.count
        assert merged.mass == pytest.approx(root.mass)
        assert np.allclose(merged.com, root.com)
        assert np.allclose(merged.quad, root.quad, atol=1e-9)
        # bmax combination is conservative: at least the true bound.
        assert merged.bmax >= root.bmax - 1e-12 or merged.bmax >= 0

    def test_combine_empty_rejected(self):
        with pytest.raises(ValueError):
            combine_records(ROOT_KEY, [])


class TestCellServer:
    def test_record_matches_tree_multipoles(self):
        rng = np.random.default_rng(4)
        pos = rng.random((400, 3))
        mass = rng.random(400) + 0.1
        tree = build_tree(pos, mass, bucket_size=8, box=UNIT_BOX)
        server = CellServer(tree.keys, tree.positions, tree.masses, UNIT_BOX, 8)
        for c in range(0, tree.n_cells, 7):
            rec = server.record(int(tree.cell_keys[c]), with_particles=False)
            assert rec.count == tree.count[c]
            assert rec.mass == pytest.approx(tree.mass[c])
            assert np.allclose(rec.com, tree.com[c])
            assert np.allclose(rec.quad, tree.quad[c], atol=1e-9)
            assert rec.bmax == pytest.approx(tree.bmax[c], rel=1e-9)

    def test_leaf_status_follows_bucket_rule(self):
        server, _, _ = _server(200, seed=5, bucket=16)
        root = server.record(ROOT_KEY)
        assert not root.is_leaf
        assert root.children  # nonempty children listed

    def test_leaf_record_carries_particles(self):
        server, _, _ = _server(10, seed=6, bucket=32)
        rec = server.record(ROOT_KEY)
        assert rec.is_leaf
        assert rec.positions.shape == (10, 3)
        assert rec.masses.shape == (10,)

    def test_empty_cell_record(self):
        server, _, _ = _server(5, seed=7)
        # A deep cell far from any particle.
        rec = server.record((ROOT_KEY << 9) | 0b111_000_111)
        assert rec.count in (0, 1, 2, 3, 4, 5)  # usually 0; never crashes

    def test_children_counts_sum(self):
        server, _, _ = _server(500, seed=8, bucket=4)
        root = server.record(ROOT_KEY)
        total = sum(server.record(k, with_particles=False).count for k in root.children)
        assert total == 500

    def test_unsorted_keys_rejected(self):
        keys = np.array([5, 3], dtype=np.uint64) | np.uint64(1 << 63)
        with pytest.raises(ValueError):
            CellServer(keys, np.zeros((2, 3)), np.ones(2), UNIT_BOX)

    def test_empty_server(self):
        server = CellServer(
            np.empty(0, dtype=np.uint64), np.empty((0, 3)), np.empty(0), UNIT_BOX
        )
        rec = server.record(ROOT_KEY)
        assert rec.count == 0
        assert server.leaf_groups([]) == []

    def test_leaf_groups_partition_particles(self):
        server, _, _ = _server(300, seed=9, bucket=8)
        groups = server.leaf_groups([ROOT_KEY])
        covered = np.zeros(300, dtype=bool)
        for _, s, e in groups:
            assert e - s <= 8 or e - s > 0
            assert not covered[s:e].any()
            covered[s:e] = True
        assert covered.all()

    @given(st.integers(1, 200), st.integers(1, 32), st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_groups_partition_under_random_branches(self, n, bucket, seed):
        rng = np.random.default_rng(seed)
        pos = rng.random((n, 3))
        keys = keys_from_positions(pos, UNIT_BOX)
        order = np.argsort(keys)
        server = CellServer(keys[order], pos[order], np.ones(n), UNIT_BOX, bucket)
        # Split key space at a random particle boundary: two "ranks".
        cut = int(rng.integers(0, n + 1))
        lo, mid, hi = MIN_PKEY, int(keys[order][cut]) if cut < n else END_PKEY, END_PKEY
        branches = cover_interval(lo, mid) + cover_interval(mid, hi)
        groups = server.leaf_groups(branches)
        covered = np.zeros(n, dtype=bool)
        for _, s, e in groups:
            assert not covered[s:e].any()
            covered[s:e] = True
        assert covered.all()
