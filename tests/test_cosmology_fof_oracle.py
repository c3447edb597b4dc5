"""An oracle for friends-of-friends that shares nothing with ``fof.py``.

``tests/test_cosmology_backend_differential.py`` holds the batched path
to ``friends_of_friends_reference`` — but both read the same grid
hashing, so a mistake there would pass.  Here the periodic
minimum-image adjacency is built by brute force over all pairs (no
grid) and components are taken by breadth-first search; plus the
invariants any FoF catalog must keep: mass is conserved, a translation
of the torus keeps the halo sizes, a relabeling of the particles keeps
the member sets.

Positions sit on a 2^-20 lattice so that translated separations are
exact and no pair can flip across the linking length by rounding.
"""

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cosmology import friends_of_friends

LATTICE = 1 << 20
LINKING_LENGTHS = [0.2, 0.5, 1.0, 3.0]


def _lattice_uniform(n, rng):
    return rng.integers(0, LATTICE, (n, 3)) / LATTICE


def _lattice_clustered(n, rng):
    centers = rng.integers(0, LATTICE, (max(1, n // 32), 3))
    jitter = np.rint(0.01 * LATTICE * rng.standard_normal((n, 3))).astype(np.int64)
    return ((centers[rng.integers(0, centers.shape[0], n)] + jitter) % LATTICE) / LATTICE


DISTRIBUTIONS = {"uniform": _lattice_uniform, "clustered": _lattice_clustered}


def _brute_force_component_minima(pos, linking_length):
    """Per particle, the smallest index in its component: all-pairs
    minimum-image adjacency, breadth-first search."""
    n = pos.shape[0]
    link = linking_length * n ** (-1.0 / 3.0)
    d = pos[:, None, :] - pos[None, :, :]
    d -= np.round(d)
    linked = (d**2).sum(axis=-1) <= link * link
    minima = np.full(n, -1)
    for seed in range(n):  # ascending, so a fresh seed is its component's minimum
        if minima[seed] >= 0:
            continue
        minima[seed] = seed
        queue = deque([seed])
        while queue:
            for j in np.flatnonzero(linked[queue.popleft()]):
                if minima[j] < 0:
                    minima[j] = seed
                    queue.append(j)
    return minima


def _catalog_component_minima(result, n):
    minima = np.full(n, -1)
    for halo in result.halos:
        minima[halo.members] = halo.members.min()
    return minima


def _member_sets(result):
    return {frozenset(h.members.tolist()) for h in result.halos}


@pytest.mark.parametrize("linking_length", LINKING_LENGTHS)
@pytest.mark.parametrize("dist", sorted(DISTRIBUTIONS))
@pytest.mark.parametrize("n", [1, 2, 3, 17, 100, 300])
def test_partition_matches_brute_force(n, dist, linking_length):
    pos = DISTRIBUTIONS[dist](n, np.random.default_rng(n + 41))
    got = friends_of_friends(pos, linking_length=linking_length, min_members=1)
    assert np.array_equal(
        _catalog_component_minima(got, n),
        _brute_force_component_minima(pos, linking_length),
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 48),
    dist=st.sampled_from(sorted(DISTRIBUTIONS)),
    linking_length=st.sampled_from(LINKING_LENGTHS),
)
def test_catalog_invariants(seed, n, dist, linking_length):
    rng = np.random.default_rng(seed)
    pos = DISTRIBUTIONS[dist](n, rng)
    masses = rng.uniform(0.5, 2.0, n)
    got = friends_of_friends(pos, masses, linking_length=linking_length, min_members=1)

    assert np.array_equal(
        _catalog_component_minima(got, n),
        _brute_force_component_minima(pos, linking_length),
    )
    # min_members=1 drops nobody: no field particles, no lost mass.
    assert (got.group_id >= 0).all()
    assert math.isclose(sum(h.mass for h in got.halos), masses.sum(), rel_tol=1e-12)

    shift = rng.integers(0, LATTICE, 3) / LATTICE
    moved = friends_of_friends(
        np.mod(pos + shift, 1.0), masses, linking_length=linking_length, min_members=1
    )
    assert sorted(h.n_members for h in moved.halos) == sorted(
        h.n_members for h in got.halos
    )

    perm = rng.permutation(n)
    shuffled = friends_of_friends(
        pos[perm], masses[perm], linking_length=linking_length, min_members=1
    )
    relabeled = {frozenset(perm[list(s)].tolist()) for s in _member_sets(shuffled)}
    assert relabeled == _member_sets(got)
