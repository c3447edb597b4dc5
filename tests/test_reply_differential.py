"""A reply names arena rows; the gather copies what the owner holds.

``_Traversal.serve_batch`` answers a request with the rows, in the
step's arena (``_Frame.arena``: every rank's own cells, rank after
rank), of the cells asked for, and ``_Traversal.admit`` copies a whole
round's replies out of the arena in one gather.  The path it replaced
copied three times: the owner's ``table.take(rows)`` at serve time, a
``CellBatch.concat`` of the round's replies, the table's ``append``.
That path is kept here, as the reference.  For every admitted round —
rank counts below and above the flat-collective limit, three loads, both
comm schedules, one-shot forces and a two-step run that carries its
cache over — what the gather copies, and what the table then holds,
must equal the reference column by column and bit for bit.

The arena is exact only because a rank's own cells are not written
during a step.  Every published batch is hashed at publication and
again when its owner's step ends, beside its rows in the owner's table
and in the arena.
"""

import hashlib

import numpy as np
import pytest

import repro.core.parallel as parallel
from repro.core import ParallelConfig, parallel_nbody_run, parallel_tree_accelerations
from repro.core.celltable import CellBatch


def _cloud(load: str, ranks: int) -> tuple[np.ndarray, np.ndarray]:
    scale = max(1, ranks // 16)
    n, rng = 160 * scale, np.random.default_rng(2026)
    if load == "uniform":
        return rng.random((n, 3)), rng.random(n) / n
    if load == "clustered":
        d = rng.standard_normal((n, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        return (rng.random(n) ** 3)[:, None] * d, np.full(n, 1.0 / n)
    # coincident: leaves overflow the bucket at the deepest level
    sites = rng.random((12 * scale, 3))
    masses = np.full(n, 1.0 / n)
    masses[::17] = 0.0
    return sites[rng.integers(0, len(sites), n)], masses


def _digest(batch: CellBatch) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for name in CellBatch.__slots__:
        h.update(np.ascontiguousarray(getattr(batch, name)).tobytes())
    return h.digest()


def _assert_same(seen: CellBatch, want: CellBatch, what: str) -> None:
    for name in CellBatch.__slots__:
        a, b = getattr(seen, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, (what, name)
        assert a.tobytes() == b.tobytes(), (what, name)


class _Audit:
    """Watches a run through the rank program's reply path."""

    def __init__(self, monkeypatch):
        self.served: dict[int, tuple] = {}  # id(reply) -> (reply, owner's take at serve time)
        self.digests: dict[int, tuple] = {}  # id(published) -> (its cells, their digest)
        self.frames: dict[int, tuple] = {}  # id(frame) -> (frame, published list)
        self.rounds = self.rows = self.steps = 0
        audit = self
        traversal = parallel._Traversal
        serve, admit, run = traversal.serve_batch, traversal.admit, traversal.run
        publish, shared_frame = parallel._Published.__init__, parallel._shared_frame

        def serve_batch(self, requester, batch):
            reply = serve(self, requester, batch)
            if reply is not None:
                own = reply.rows - self.frame.base[self.comm.rank]
                audit.served[id(reply)] = (reply, self.table.take(own))
            return reply

        def admit_round(self, replies):
            rows = admit(self, replies)
            named = [r for r in replies if r is not None and len(r)]
            if named:
                reference = CellBatch.concat([audit.served.pop(id(r))[1] for r in named])
                gathered = self.frame.arena.take(np.concatenate([r.rows for r in named]))
                _assert_same(gathered, reference, "gathered")
                _assert_same(self.table.take(rows), reference, "admitted")
                audit.rounds += 1
                audit.rows += rows.size
            return rows

        def run_step(self):
            out = yield from run(self)
            frame, published = audit.frames[id(self.frame)]
            mine = published[self.comm.rank]
            cells, at_publication = audit.digests[id(mine)]
            assert _digest(cells) == at_publication, "published cells written during the step"
            own = np.arange(len(cells))
            assert (_digest(self.table.take(own)) == _digest(cells.take(own))
                    == _digest(frame.arena.take(frame.base[self.comm.rank] + own)))
            audit.steps += 1
            return out

        def published_init(self, cells, n_branches):
            publish(self, cells, n_branches)
            audit.digests[id(self)] = (cells, _digest(cells))

        def shared(published, memo):
            frame = shared_frame(published, memo)
            audit.frames.setdefault(id(frame), (frame, list(published)))
            return frame

        monkeypatch.setattr(traversal, "serve_batch", serve_batch)
        monkeypatch.setattr(traversal, "admit", admit_round)
        monkeypatch.setattr(traversal, "run", run_step)
        monkeypatch.setattr(parallel._Published, "__init__", published_init)
        monkeypatch.setattr(parallel, "_shared_frame", shared)

    def done(self, ranks: int, steps: int) -> None:
        assert not self.served, "a reply was served and never admitted"
        assert self.steps == ranks * steps
        assert self.rounds > 0 and self.rows > 0


@pytest.fixture
def audit(monkeypatch):
    return _Audit(monkeypatch)


CASES = [(ranks, comm, load) for ranks in (3, 8, 64) for comm in ("async", "blocking")
         for load in ("uniform", "clustered", "coincident")]


def _config(comm: str) -> ParallelConfig:
    return ParallelConfig(theta=0.7, eps=0.02, bucket_size=8, comm=comm)


@pytest.mark.parametrize("ranks, comm, load", CASES)
def test_force_replies_are_the_owners_rows(audit, ranks, comm, load):
    pos, m = _cloud(load, ranks)
    parallel_tree_accelerations(pos, m, n_ranks=ranks, config=_config(comm),
                                record_trace=False)
    audit.done(ranks, steps=1)


@pytest.mark.parametrize("ranks, comm, load", CASES)
def test_carried_over_run_replies_are_the_owners_rows(audit, ranks, comm, load):
    # A dt so small that most branches keep their fingerprint: the
    # second step starts from a carried-over cache on rebalanced domains.
    pos, m = _cloud(load, ranks)
    res = parallel_nbody_run(pos, m, n_ranks=ranks, n_steps=2, dt=1e-9, config=_config(comm),
                             cache_across_steps=True, rebalance=True, record_trace=False)
    audit.done(ranks, steps=2)
    assert res.comm["cache_size"] > 0
