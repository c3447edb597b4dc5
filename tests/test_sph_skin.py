"""``adapt_smoothing`` answers its iterations from one skin search.

The solve searches once at ``GROW`` times the radii and cuts every
iteration's lists from that search (``NeighborLists.within``), searching
again only when a radius outgrows its skin.  The contract is exactness:
each iteration's lists are ``find_neighbors(tree, radii)`` bit for bit,
and the solve returns what the loop that searched every iteration
returned.  That loop is kept here as the oracle.
"""

import numpy as np
import pytest

from repro.core import build_tree
from repro.sph import SUPPORT_RADIUS, adapt_smoothing, find_neighbors, initial_smoothing
from repro.sph import density as density_module
from repro.sph.density import GROW, density_sum
from repro.sph.neighbors import NeighborLists


def every_iteration_oracle(positions, masses, h=None, *, n_target=40, max_iters=4,
                           bucket_size=16):
    """The solve as it was before the skin: one search every iteration."""
    positions = np.ascontiguousarray(positions, dtype=np.float64)
    masses = np.ascontiguousarray(masses, dtype=np.float64)
    if h is None:
        h = initial_smoothing(positions, n_target)
    tree = build_tree(positions, masses, bucket_size=bucket_size)
    h = np.asarray(h, dtype=np.float64)[tree.order]
    for iterations in range(1, max_iters + 1):
        neigh = find_neighbors(tree, SUPPORT_RADIUS * h)
        counts = neigh.counts()
        if iterations == max_iters or np.all(np.abs(counts - n_target) <= max(2, n_target // 5)):
            break
        factor = (n_target / np.maximum(counts, 1)) ** (1.0 / 3.0)
        h = h * np.clip(factor, 0.7, 1.5)
    rho, _ = density_sum(tree, h, neigh)
    return tree, h, rho, neigh, iterations


def _same_lists(a: NeighborLists, b: NeighborLists) -> bool:
    return all(np.array_equal(x, y) for x, y in (
        (a.offsets, b.offsets), (a.neighbors, b.neighbors),
        (a.search_radii, b.search_radii), (a.d2, b.d2)))


@pytest.fixture
def watched(monkeypatch):
    """Counts the solve's searches and checks every iteration's lists
    against a fresh search at that iteration's radii."""
    seen = {"searches": 0, "iterations": 0, "mismatches": 0, "tree": None}
    search, within = density_module.find_neighbors, NeighborLists.within

    def counted_search(tree, radii, **kw):
        seen["searches"] += 1
        seen["tree"] = tree
        return search(tree, radii, **kw)

    def checked_within(self, radii):
        got = within(self, radii)
        seen["iterations"] += 1
        seen["mismatches"] += not _same_lists(got, search(seen["tree"], radii))
        return got

    monkeypatch.setattr(density_module, "find_neighbors", counted_search)
    monkeypatch.setattr(NeighborLists, "within", checked_within)
    return seen


def _cloud(rng, kind: str, n: int) -> np.ndarray:
    if kind == "uniform":
        return rng.random((n, 3))
    if kind == "clustered":
        centres = rng.random((4, 3))
        return centres[rng.integers(0, 4, n)] + 0.03 * rng.standard_normal((n, 3))
    pos = rng.random((n, 3))  # "coincident": a few particles on one point
    pos[1:5] = pos[0]
    return pos


def _case(seed: int):
    rng = np.random.default_rng(seed)
    kind = ("uniform", "clustered", "coincident")[seed % 3]
    n = int(rng.integers(40, 260))
    pos = _cloud(rng, kind, n)
    masses = 0.5 + rng.random(n)
    n_target = int(rng.integers(8, 41))
    h_mode = ("large", "small", "none")[(seed // 3) % 3]
    h0 = initial_smoothing(pos, n_target)
    h = {"large": h0 * (2.0 + rng.random(n)), "small": h0 * (0.2 + 0.3 * rng.random(n)),
         "none": None}[h_mode]
    return pos, masses, h, dict(n_target=n_target, max_iters=int(rng.integers(1, 7)))


def _assert_matches_oracle(pos, masses, h, kw, watched):
    tree, got = adapt_smoothing(pos, masses, h, **kw)
    o_tree, o_h, o_rho, o_neigh, o_iterations = every_iteration_oracle(pos, masses, h, **kw)
    assert np.array_equal(tree.order, o_tree.order)
    assert np.array_equal(got.h, o_h) and np.array_equal(got.rho, o_rho)
    assert _same_lists(got.neighbors, o_neigh)
    assert got.n_iterations == o_iterations == watched["iterations"]
    assert watched["mismatches"] == 0
    assert 1 <= watched["searches"] <= got.n_iterations


@pytest.mark.parametrize("seed", range(36))
def test_every_iteration_is_a_fresh_search(seed, watched):
    pos, masses, h, kw = _case(seed)
    _assert_matches_oracle(pos, masses, h, kw, watched)
    if kw["max_iters"] == 1:
        assert watched["searches"] == 1


def test_a_solve_that_outgrows_its_skin_twice(watched):
    # Starting at a tenth of the spacing, h grows by the full GROW every
    # iteration, so the radii leave their skin at iterations 3 and 5.
    rng = np.random.default_rng(7)
    pos, masses = rng.random((200, 3)), 0.5 + rng.random(200)
    h = 0.1 * initial_smoothing(pos, 30)
    _assert_matches_oracle(pos, masses, h, dict(n_target=30, max_iters=6), watched)
    assert watched["searches"] >= 3


def test_within_keeps_the_search_order():
    rng = np.random.default_rng(11)
    pos = rng.random((300, 3))
    tree = build_tree(pos, np.ones(300))
    radii = 0.05 + 0.1 * rng.random(300)
    skin = find_neighbors(tree, radii * GROW)
    assert _same_lists(skin.within(radii), find_neighbors(tree, radii))
    assert _same_lists(skin.within(skin.search_radii), skin)
    with pytest.raises(ValueError, match="new search"):
        skin.within(skin.search_radii * 1.01)


class TestDegenerateInput:
    """Degenerate particle sets are refused by name before any tree is built."""

    def test_empty_positions(self):
        for call in (lambda: adapt_smoothing(np.empty((0, 3)), np.empty(0)),
                     lambda: initial_smoothing(np.empty((0, 3)))):
            with pytest.raises(ValueError, match="positions"):
                call()

    def test_non_finite_positions(self):
        pos = np.random.default_rng(1).random((20, 3))
        pos[3, 1] = np.nan
        for call in (lambda: adapt_smoothing(pos, np.ones(20)),
                     lambda: initial_smoothing(pos)):
            with pytest.raises(ValueError, match="positions must be finite"):
                call()

    def test_masses_of_the_wrong_shape(self):
        pos = np.random.default_rng(2).random((20, 3))
        with pytest.raises(ValueError, match="masses"):
            adapt_smoothing(pos, np.ones(19))
