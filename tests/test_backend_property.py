"""Hypothesis property tests for the batched kernel-backend layer.

Three physics invariants that any correct gravity kernel must satisfy,
checked on randomly drawn particle sets and tree shapes:

* **Permutation equivariance** — relabelling the particles permutes the
  accelerations and nothing else;
* **Translation invariance** — rigidly shifting the system leaves the
  accelerations (differences of positions) unchanged;
* **Walker equivalence** — the per-group interaction lists produced by
  the shared-frontier batched traversal are *identical* (same ids, same
  emission order) to the historical one-group-at-a-time walker, under
  either acceptance criterion;
* **The one-rank case** — the shared walk over a tree's own table
  (:attr:`~repro.core.tree.Tree.table`) never leaves the table: nothing
  parks, nothing is looked up.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AbsoluteErrorMAC, OpeningAngleMAC, build_tree, compute_forces
from repro.core.celltable import SILENT
from repro.core.traversal import _collect_lists, build_interaction_lists, walk

# -- strategies ------------------------------------------------------------

seeds = st.integers(min_value=0, max_value=2**32 - 1)
sizes = st.integers(min_value=1, max_value=160)
buckets = st.sampled_from([1, 4, 8, 16, 32])
thetas = st.sampled_from([0.3, 0.5, 0.8, 1.0])
macs = st.one_of(thetas.map(OpeningAngleMAC),
                 st.sampled_from([1e-3, 0.1, 10.0]).map(AbsoluteErrorMAC))
#: ``_particles``' third argument; "stacked" puts every particle on one
#: of a few sites, so leaves overflow the bucket at ``MAX_LEVEL``.
clouds = st.sampled_from([False, True, "stacked"])


def _particles(n, seed, clustered):
    rng = np.random.default_rng(seed)
    if clustered == "stacked":
        pos = rng.random((max(1, n // 20), 3))[rng.integers(0, max(1, n // 20), n)]
    elif clustered and n >= 4:
        # A few tight clusters: deep, uneven trees.
        k = max(2, n // 20)
        centers = rng.random((k, 3)) * 4.0
        pos = centers[rng.integers(0, k, n)] + 0.02 * rng.standard_normal((n, 3))
    else:
        pos = rng.random((n, 3))
    masses = rng.uniform(0.1, 2.0, n) / n
    return pos, masses


@settings(max_examples=25, deadline=None)
@given(seed=seeds, n=sizes, bucket=buckets, theta=thetas, clustered=st.booleans())
def test_permutation_equivariance(seed, n, bucket, theta, clustered):
    pos, m = _particles(n, seed, clustered)
    perm = np.random.default_rng(seed + 1).permutation(n)
    mac = OpeningAngleMAC(theta)
    base = compute_forces(build_tree(pos, m, bucket_size=bucket), mac=mac, eps=0.05)
    shuf = compute_forces(
        build_tree(pos[perm], m[perm], bucket_size=bucket), mac=mac, eps=0.05
    )
    # Results come back in input order; a relabelling must permute them.
    assert np.allclose(
        shuf.accelerations, base.accelerations[perm], rtol=1e-10, atol=1e-12
    )
    assert np.allclose(shuf.potentials, base.potentials[perm], rtol=1e-10, atol=1e-12)
    # The spatial tree is the same tree, so the work done is too.
    assert shuf.counts == base.counts


@settings(max_examples=25, deadline=None)
@given(
    seed=seeds,
    n=sizes,
    bucket=buckets,
    theta=thetas,
    shift=st.tuples(
        *[st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)] * 3
    ),
)
def test_translation_invariance(seed, n, bucket, theta, shift):
    pos, m = _particles(n, seed, clustered=False)
    mac = OpeningAngleMAC(theta)
    base = compute_forces(build_tree(pos, m, bucket_size=bucket), mac=mac, eps=0.05)
    moved = compute_forces(
        build_tree(pos + np.asarray(shift), m, bucket_size=bucket), mac=mac, eps=0.05
    )
    # Forces depend only on position differences; the shift survives
    # only as fp rounding of (x + t) - (com + t).
    scale = np.max(np.abs(base.accelerations)) + 1.0
    assert np.allclose(
        moved.accelerations, base.accelerations, rtol=1e-8, atol=1e-8 * scale
    )
    assert moved.counts == base.counts


@settings(max_examples=25, deadline=None)
@given(seed=seeds, n=sizes, bucket=buckets, mac=macs, cloud=clouds)
def test_batched_lists_match_single_group_walker(seed, n, bucket, mac, cloud):
    pos, m = _particles(n, seed, cloud)
    tree = build_tree(pos, m, bucket_size=bucket)
    lists = build_interaction_lists(tree, mac)
    assert np.array_equal(lists.groups, tree.leaf_ids)
    for g, group in enumerate(lists.groups):
        ref_cells, ref_parts = _collect_lists(tree, int(group), mac)
        assert np.array_equal(lists.cells_of(g), ref_cells), group
        # The batched walk stores direct sources as leaf ids; expand to
        # particle runs to compare against the reference's flat index
        # list (both emit in breadth-first order).
        leaves = lists.leaves_of(g)
        parts = (
            np.concatenate(
                [
                    np.arange(tree.start[l], tree.start[l] + tree.count[l], dtype=np.int64)
                    for l in leaves
                ]
            )
            if leaves.size
            else np.empty(0, dtype=np.int64)
        )
        assert np.array_equal(parts, ref_parts), group


@settings(max_examples=25, deadline=None)
@given(seed=seeds, n=sizes, bucket=buckets, mac=macs, cloud=clouds)
def test_walk_over_a_tree_table_never_leaves_the_table(seed, n, bucket, mac, cloud):
    pos, m = _particles(n, seed, cloud)
    tree = build_tree(pos, m, bucket_size=bucket)
    table, groups = tree.table, tree.leaf_ids
    asked = []

    def resolve(keys):
        asked.append(keys)
        return table.lookup(keys)

    everyone = np.arange(groups.shape[0], dtype=np.int64)
    _, (og, orow), (pg, pkey), tests, passes, misses = walk(
        table, (groups, tree.com[groups], tree.bmax[groups]), mac,
        everyone, np.zeros_like(everyone), resolve=resolve)
    assert pg.size == pkey.size == misses == 0 and not asked
    assert np.all(table.child_row[:table.n_kids] >= 0)
    assert np.all(table.kind[:len(table)] == SILENT)
    # Every walk came to its end: it opened its own leaf, once.
    assert np.array_equal(np.sort(og[orow == groups[og]]), everyone)
    assert tests >= everyone.size and passes >= 1
