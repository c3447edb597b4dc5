"""Tests for repro.core.tree: oct-tree construction and cell moments."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BoundingBox, CellServer, build_tree

UNIT_BOX = BoundingBox(np.zeros(3), 1.0)


def _cloud(n, seed=0, centrally_condensed=False):
    rng = np.random.default_rng(seed)
    if centrally_condensed:
        r = rng.random(n) ** 3 * 0.4
        direction = rng.standard_normal((n, 3))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        pos = 0.5 + r[:, None] * direction
    else:
        pos = rng.random((n, 3))
    return pos, rng.random(n) + 0.1


class TestBuild:
    def test_structure_invariants_uniform(self):
        pos, m = _cloud(500, seed=1)
        tree = build_tree(pos, m, bucket_size=8, box=UNIT_BOX)
        tree.validate()

    def test_structure_invariants_clustered(self):
        pos, m = _cloud(800, seed=2, centrally_condensed=True)
        tree = build_tree(pos, m, bucket_size=4, box=UNIT_BOX)
        tree.validate()

    def test_leaves_partition_particles(self):
        pos, m = _cloud(300, seed=3)
        tree = build_tree(pos, m, bucket_size=10, box=UNIT_BOX)
        leaf_total = int(tree.count[tree.leaf_ids].sum())
        assert leaf_total == tree.n_particles
        seen = np.zeros(tree.n_particles, dtype=bool)
        for leaf in tree.leaf_ids:
            sl = tree.particles_of(leaf)
            assert not seen[sl].any()
            seen[sl] = True
        assert seen.all()

    def test_single_particle(self):
        tree = build_tree(np.array([[0.5, 0.5, 0.5]]), np.array([2.0]), box=UNIT_BOX)
        assert tree.n_cells == 1
        assert tree.mass[0] == 2.0
        assert np.allclose(tree.com[0], [0.5, 0.5, 0.5])

    def test_bucket_size_one_separates_particles(self):
        pos = np.array([[0.1, 0.1, 0.1], [0.9, 0.9, 0.9], [0.1, 0.9, 0.1]])
        tree = build_tree(pos, np.ones(3), bucket_size=1, box=UNIT_BOX)
        assert (tree.count[tree.leaf_ids] == 1).all()

    def test_coincident_particles_stop_at_max_level(self):
        # Two particles at the same point can never be separated; the
        # build must terminate with an over-full deepest leaf.
        pos = np.array([[0.3, 0.3, 0.3], [0.3, 0.3, 0.3], [0.3, 0.3, 0.3]])
        tree = build_tree(pos, np.ones(3), bucket_size=1, box=UNIT_BOX)
        tree.validate()
        deepest = tree.level.max()
        assert tree.count[tree.level == deepest].max() == 3

    def test_hash_finds_every_cell(self):
        pos, m = _cloud(200, seed=4)
        tree = build_tree(pos, m, bucket_size=8, box=UNIT_BOX)
        for c in range(tree.n_cells):
            assert tree.find_cell(int(tree.cell_keys[c])) == c
        # Absent keys: sibling octants that hold no particle, a key one
        # level below a leaf, and the reserved key 0.
        held = set(tree.cell_keys.tolist())
        empty = [k for key in tree.cell_keys[tree.n_children > 0].tolist()
                 for k in range(key << 3, (key << 3) + 8) if k not in held]
        assert empty
        for key in [*empty, int(tree.cell_keys[tree.leaf_ids[0]]) << 3, 0]:
            assert tree.find_cell(key) is None

    def test_find_cell_reads_the_table_the_walks_run_over(self):
        pos, m = _cloud(200, seed=4)
        tree = build_tree(pos, m, bucket_size=8, box=UNIT_BOX)
        table = tree.table
        assert table is tree.table and table.index.get(int(tree.cell_keys[3])) == 3
        # Row = cell id, over the tree's own arrays: a write to the
        # tree's moments is a write to the table's.
        assert np.array_equal(table.key[:len(table)], tree.cell_keys)
        assert np.shares_memory(table.quad, tree.quad)
        kids = table.child_row[table.cstart[0]:table.cstart[0] + table.cn[0]]
        assert np.array_equal(kids, tree.children_of(0))

    def test_morton_order_output(self):
        pos, m = _cloud(100, seed=5)
        tree = build_tree(pos, m, box=UNIT_BOX)
        assert np.all(np.diff(tree.keys.astype(np.float64)) >= 0)
        # order maps sorted back to input
        assert np.allclose(pos[tree.order], tree.positions)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            build_tree(np.empty((0, 3)))
        with pytest.raises(ValueError):
            build_tree(np.zeros((5, 2)))
        with pytest.raises(ValueError):
            build_tree(np.random.rand(5, 3), np.ones(4))
        with pytest.raises(ValueError):
            build_tree(np.random.rand(5, 3), -np.ones(5))
        with pytest.raises(ValueError):
            build_tree(np.random.rand(5, 3), bucket_size=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_positions_are_refused_by_name(self, bad):
        pos = np.random.default_rng(1).random((6, 3))
        pos[4, 1] = bad
        with pytest.raises(ValueError, match="positions must be finite"):
            build_tree(pos)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_masses_are_refused_by_name(self, bad):
        m = np.full(6, 1.0 / 6)
        m[2] = bad
        with pytest.raises(ValueError, match="masses must be finite"):
            build_tree(np.random.default_rng(1).random((6, 3)), m)

    @given(st.integers(1, 400), st.integers(1, 64), st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_invariants_hold_for_random_builds(self, n, bucket, seed):
        rng = np.random.default_rng(seed)
        pos = rng.random((n, 3))
        tree = build_tree(pos, bucket_size=bucket, box=UNIT_BOX)
        tree.validate()
        assert int(tree.count[tree.leaf_ids].sum()) == n


def _drawn_cloud(kind, n, seed):
    """A cloud of one of four shapes: ``uniform``, ``clustered``,
    ``sites`` (every particle on one of five points, so leaves overflow
    at the deepest level, some massless) and ``lattice`` (points of an
    eighth-spaced grid, every one on the faces of the cells that hold
    it)."""
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return _cloud(n, seed)
    if kind == "clustered":
        return _cloud(n, seed, centrally_condensed=True)
    if kind == "sites":
        pos = rng.random((5, 3))[rng.integers(0, 5, n)]
        m = rng.random(n)
        m[::4] = 0.0
        return pos, m
    return rng.integers(0, 8, (n, 3)) / 8.0, rng.random(n) + 0.1


@given(st.sampled_from(["uniform", "clustered", "sites", "lattice"]), st.integers(1, 300),
       st.sampled_from([1, 8, 32]), st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_every_cell_is_its_cellserver_record_bit_for_bit(kind, n, bucket, seed):
    pos, m = _drawn_cloud(kind, n, seed)
    tree = build_tree(pos, m, bucket_size=bucket, box=UNIT_BOX if kind == "lattice" else None)
    server = CellServer(tree.keys, tree.positions, tree.masses, tree.box, bucket)
    for c, key in enumerate(tree.cell_keys.tolist()):
        rec = server.record(key)
        assert (rec.count, rec.is_leaf, rec.children) == (
            tree.count[c], tree.is_leaf[c], tuple(tree.cell_keys[tree.children_of(c)].tolist()))
        for name, ours, spec in (("mass", tree.mass[c], rec.mass), ("com", tree.com[c], rec.com),
                                 ("quad", tree.quad[c], rec.quad),
                                 ("bmax", tree.bmax[c], rec.bmax)):
            assert np.asarray(ours).tobytes() == np.asarray(spec).tobytes(), (name, key)


class TestMultipoles:
    def test_root_mass_and_com(self):
        pos, m = _cloud(250, seed=6)
        tree = build_tree(pos, m, box=UNIT_BOX)
        assert tree.mass[0] == pytest.approx(m.sum())
        expected_com = (m[:, None] * pos).sum(axis=0) / m.sum()
        assert np.allclose(tree.com[0], expected_com)

    def test_cell_masses_sum_to_children(self):
        pos, m = _cloud(400, seed=7)
        tree = build_tree(pos, m, bucket_size=8, box=UNIT_BOX)
        for c in range(tree.n_cells):
            kids = tree.children_of(c)
            if kids.size:
                assert tree.mass[c] == pytest.approx(tree.mass[kids].sum())

    def test_quadrupole_traceless(self):
        pos, m = _cloud(300, seed=8, centrally_condensed=True)
        tree = build_tree(pos, m, box=UNIT_BOX)
        trace = tree.quad[:, 0] + tree.quad[:, 1] + tree.quad[:, 2]
        scale = np.abs(tree.quad).max() + 1e-30
        assert np.all(np.abs(trace) < 1e-10 * max(scale, 1.0))

    def test_quadrupole_matches_definition(self):
        pos, m = _cloud(64, seed=9)
        tree = build_tree(pos, m, bucket_size=64, box=UNIT_BOX)
        rel = tree.positions - tree.com[0]
        r2 = np.einsum("ij,ij->i", rel, rel)
        expect = np.empty(6)
        expect[0] = np.sum(tree.masses * (3 * rel[:, 0] ** 2 - r2))
        expect[1] = np.sum(tree.masses * (3 * rel[:, 1] ** 2 - r2))
        expect[2] = np.sum(tree.masses * (3 * rel[:, 2] ** 2 - r2))
        expect[3] = np.sum(tree.masses * 3 * rel[:, 0] * rel[:, 1])
        expect[4] = np.sum(tree.masses * 3 * rel[:, 0] * rel[:, 2])
        expect[5] = np.sum(tree.masses * 3 * rel[:, 1] * rel[:, 2])
        assert np.allclose(tree.quad[0], expect)

    def test_single_particle_cell_has_zero_quadrupole(self):
        tree = build_tree(np.array([[0.2, 0.7, 0.4]]), np.array([3.0]), box=UNIT_BOX)
        assert np.allclose(tree.quad[0], 0.0)

    def test_bmax_bounds_every_member(self):
        pos, m = _cloud(350, seed=10)
        tree = build_tree(pos, m, bucket_size=16, box=UNIT_BOX)
        for c in range(tree.n_cells):
            sl = tree.particles_of(c)
            d = np.linalg.norm(tree.positions[sl] - tree.com[c], axis=1)
            assert d.max() <= tree.bmax[c] + 1e-12, c

    def test_massless_particles_allowed(self):
        pos, _ = _cloud(50, seed=11)
        tree = build_tree(pos, np.zeros(50), box=UNIT_BOX)
        assert tree.mass[0] == 0.0
        assert np.isfinite(tree.com).all()
