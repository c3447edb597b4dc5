"""What a rank's cell table holds, and that the shared frame stays shared.

Every rank reads the step's frame (the branch cells and the cells above
them) where it is; a rank's :class:`~repro.core.celltable.CellTable`
holds its own cells, the rows it fetched and the rows carried over from
the step before, and nothing of the frame.  The frame is read-only, so a
rank that wrote its own state into a shared row would raise instead of
leaking into every other rank's walks.
"""

import functools

import numpy as np
import pytest

from repro.core import ParallelConfig, parallel_nbody_run, parallel_tree_accelerations
from repro.core import parallel
from repro.core.celltable import DEAD, REMOTE, SILENT, CellBatch

#: Every column of a cell table.
COLUMNS = ("kind", "prefetched", "branch", "child_row", *CellBatch.__slots__)


def test_ranks_leave_the_shared_frame_as_it_was_built(monkeypatch):
    built = []
    original = parallel._shared_frame

    def shared(published, memo):
        frame = original(published, memo)
        if not any(frame is f for f, _ in built):
            built.append((frame, {name: getattr(frame.table, name).tobytes()
                                  for name in COLUMNS}))
        return frame

    monkeypatch.setattr(parallel, "_shared_frame", shared)
    rng = np.random.default_rng(47)
    pos = rng.normal(size=(400, 3))
    res = parallel_nbody_run(pos, np.full(400, 1.0 / 400), n_ranks=8, n_steps=2, dt=1e-3,
                             config=ParallelConfig(theta=0.7, eps=0.02))
    assert all(np.isfinite(a).all() for a in res.step_accelerations)
    assert len(built) == 2  # one frame a step, shared by the 8 ranks
    for frame, columns in built:
        for name, before in columns.items():
            column = getattr(frame.table, name)
            assert not column.flags.writeable, name
            assert column.tobytes() == before, name


@functools.cache
def _table_rows(n_ranks: int) -> np.ndarray:
    """Rows of every rank's table in a step at ``n_ranks`` ranks of 2
    particles, each table checked for what it holds."""
    ranks = []

    class Recorded(parallel._Traversal):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            ranks.append(self)

    pos = np.random.default_rng(20030512 + n_ranks).random((2 * n_ranks, 3))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parallel, "_Traversal", Recorded)
        parallel_tree_accelerations(pos, n_ranks=n_ranks, config=ParallelConfig())
    assert len(ranks) == n_ranks
    for rank in ranks:
        frame, table, me = rank.frame, rank.table, rank.comm.rank
        first, end = np.append(frame.base, len(frame.arena))[me:me + 2]
        kind = table.kind[:len(table)]
        # Its own cells first, then one row for each key it asked for.
        assert (kind[:end - first] == SILENT).all()
        assert np.isin(kind[end - first:], (REMOTE, DEAD)).all()
        assert table.key[:end - first].tolist() == frame.arena.key[first:end].tolist()
        assert len(table) - (end - first) == rank.stats["requests"]
        # Nothing of the frame: no aggregated cell, and another rank's
        # branch cell only as a fetched copy, particles and all.
        live = np.flatnonzero(kind != DEAD)
        rows, shared = frame.table.lookup(table.key[live])
        owner = frame.owner[rows[shared]]
        assert (owner >= 0).all()
        theirs = live[shared][owner != me]
        assert (table.kind[theirs] == REMOTE).all() and (table.pn[theirs] > 0).all()
    return np.array([len(rank.table) for rank in ranks])


def test_the_median_ranks_table_stops_growing_with_the_machine():
    # Copying in the part of the tree top its walks reached, the median
    # rank held 137 rows at P = 64 and 270 at P = 256.  Own and fetched
    # rows alone: 12 and 18.
    small, large = _table_rows(64), _table_rows(256)
    assert np.median(large) <= 1.5 * np.median(small), (np.median(small), np.median(large))


@pytest.mark.xfail(strict=True, reason="_Traversal.prefetch_boundary fetches every cell a wide "
                   "domain sphere might open: the largest table is 91 rows at P = 64, 321 at 256")
def test_the_largest_ranks_table_stops_growing_with_the_machine():
    small, large = _table_rows(64), _table_rows(256)
    assert large.max() <= 1.5 * small.max(), (small.max(), large.max())
