"""The queued rectangle evaluator: many jobs in one call, bit for bit.

The parallel treecode queues every rank's completed walks as
:class:`~repro.core.traversal.RectJob` s and evaluates the whole queue
with one ``evaluate_rects`` call before a rank reads its forces.  That
call must add into every job's ``acc``/``pot`` exactly what one call
per job adds: the jobs here come from tables of different sizes,
include one with no rectangles and one over an empty table (a rank
that owns no particles), two that share their ``acc``/``pot`` (one
rank's successive batches), coincident particles under ``eps = 0``
(the zero-distance rule) and ``G != 1``; also when the join is split
because the jobs exceed ``JOIN_ROWS``.
"""

import numpy as np
import pytest

from repro.core import ParallelConfig, build_tree, parallel_tree_accelerations
from repro.core import parallel, traversal
from repro.core.backend import get_backend
from repro.core.celltable import CellTable
from repro.core.traversal import RectJob, build_interaction_lists, evaluate_rects

NONE = np.empty(0, dtype=np.int64)
EMPTY_LISTS = (np.zeros(1, dtype=np.int64), NONE)


def _tree(n, seed, coincident=0):
    rng = np.random.default_rng(seed)
    pos = rng.random((n, 3))
    pos[:coincident] = pos[coincident:2 * coincident]  # exact duplicates
    return build_tree(pos, rng.uniform(0.5, 1.5, n) / n, bucket_size=8)


def _lists(tree, keep=None):
    """A tree's rectangles; only the groups ``keep`` selects get lists."""
    lists = build_interaction_lists(tree)
    cells = (lists.cell_offsets, lists.cell_ids)
    direct = lists.direct_sources(tree.table)
    if keep is not None:
        cells, direct = ((np.concatenate(([0], np.cumsum(np.where(keep, np.diff(o), 0)))),
                          np.concatenate([ids[o[g]:o[g + 1]] for g in np.flatnonzero(keep)]))
                         for o, ids in (cells, direct))
    groups = lists.groups
    return tree.start[groups], tree.count[groups], cells, direct


def _jobs(seed=0):
    """Jobs over three tables of different sizes, with ``acc``/``pot``
    already holding values (a rank's self-energy term is added before
    its job is queued)."""
    rng = np.random.default_rng(seed)
    small, mid, big = _tree(40, 1, coincident=6), _tree(200, 2), _tree(700, 3, coincident=20)

    def arrays(tree):
        return rng.standard_normal((tree.n_particles, 3)), rng.standard_normal(tree.n_particles)

    jobs = [RectJob.over(t.table, *_lists(t), *arrays(t)) for t in (small, big)]
    # One rank's two batches: disjoint groups, one acc/pot.
    shared = arrays(mid)
    first = np.arange(len(mid.leaf_ids)) % 3 == 0
    jobs += [RectJob.over(mid.table, *_lists(mid, keep), *shared) for keep in (first, ~first)]
    # A batch with no rectangles, and a rank that owns no particles.
    jobs.append(RectJob.over(big.table, NONE, NONE, EMPTY_LISTS, EMPTY_LISTS, *arrays(big)))
    jobs.append(RectJob.over(CellTable(), NONE, NONE, EMPTY_LISTS, EMPTY_LISTS,
                             np.zeros((0, 3)), np.zeros(0)))
    return jobs


def _results(jobs):
    return [a for j in jobs for a in (j.acc, j.pot)]


@pytest.mark.parametrize("join_rows", [traversal.JOIN_ROWS, 1000])
@pytest.mark.parametrize("eps, G", [(0.0, 1.0), (0.0, 2.5), (0.03, 0.7)])
def test_one_call_equals_one_call_per_job(eps, G, join_rows, monkeypatch):
    monkeypatch.setattr(traversal, "JOIN_ROWS", join_rows)
    kb = get_backend(None)
    queued, alone = _jobs(), _jobs()
    evaluate_rects(kb, queued, eps * eps, G)
    for job in alone:
        evaluate_rects(kb, [job], eps * eps, G)
    for got, want in zip(_results(queued), _results(alone)):
        assert np.array_equal(got, want)
    # Every job with a rectangle was evaluated (its values moved).
    assert not any(np.array_equal(a, b) for a, b in zip(_results(queued)[:8], _results(_jobs())))


def test_no_jobs_is_nothing():
    evaluate_rects(get_backend(None), [], 0.0, 1.0)


def test_one_flush_carries_every_rank_at_p64(monkeypatch):
    # The ``ranks_comm`` shape: 64 ranks of 2 particles, fewer rows
    # than ``JOIN_ROWS`` in all.  Every rank queues its batches and the
    # first rank to finish its walk evaluates the queue: then it holds
    # one batch of every rank, and every later flush finds it empty.
    flushes, joins = [], []

    def spy(kb, jobs, eps2, G, *rest):
        flushes.append([id(job.acc) for job in jobs])
        return evaluate_rects(kb, jobs, eps2, G, *rest)

    join = traversal._joined
    monkeypatch.setattr(parallel, "evaluate_rects", spy)
    monkeypatch.setattr(traversal, "_joined", lambda jobs: joins.append(len(jobs)) or join(jobs))
    pos = np.random.default_rng(601).random((128, 3))
    res = parallel_tree_accelerations(pos, n_ranks=64, config=ParallelConfig())
    assert len(flushes) == 64
    assert len(flushes[0]) == len(set(flushes[0])) == 64
    assert not any(flushes[1:])
    assert joins == [64]  # one kernel call of each kind for all of them
    assert np.isfinite(res.accelerations).all()
