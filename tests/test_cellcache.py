"""Tests for the remote-cell cache of the parallel treecode.

The cache is the rank's :class:`~repro.core.celltable.CellTable` itself
(``fetched()`` and the ``branch`` column) under the rank-side
bookkeeping of ``_Traversal.hit`` (what the shared walk,
``repro.core.traversal.walk``, reports its visits of fetched rows to) /
``admit`` / ``seed``; a reply is a :class:`~repro.core.celltable.CellRows`
naming rows of the shared frame's arena.  The sequential cache it
replaced, ``repro.core.cellcache.CellCache``, is kept here, cut to its
unbounded paths, as the model the table is held against.
"""

from collections import OrderedDict
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BoundingBox,
    CellServer,
    ParallelConfig,
    key_interval,
    keys_from_positions,
    parallel_tree_accelerations,
)
from repro.core.celltable import CellBatch, CellRows
from repro.core.domain import END_PKEY
from repro.core.parallel import _Frame, _Published, _Traversal

COUNTERS = ("hits", "misses", "inserts", "invalidated")

#: Rank 0 owns the first octant, rank 1 the other seven: its branch
#: cells are the level-1 keys 9..15, and the cells fetched from it the
#: level-2 keys below them (the covering branch of ``key`` is ``key >> 3``).
BRANCHES = range(9, 16)
REMOTE_KEYS = st.integers(9 * 8, 16 * 8 - 1)


def _cells(keys) -> CellBatch:
    """Bare cells (unit mass, no children, no particles) under ``keys``."""
    batch = CellBatch.empty(len(keys))
    batch.key[:], batch.mass[:] = keys, 1.0
    return batch


#: Rank 1 publishes its branch cells and, behind them, the cells fetched
#: from it: the arena every reply names rows of.
FRAME = _Frame([_Published(_cells([8]), 1),
                _Published(_cells([*BRANCHES, *range(9 * 8, 16 * 8)]), len(BRANCHES))])
ARENA_ROW = {key: row for row, key in enumerate(FRAME.arena.key.tolist())}


def _reply(keys) -> CellRows:
    """What rank 1 answers a request for ``keys`` with."""
    rows = np.array([ARENA_ROW[k] for k in keys], dtype=np.int64)
    return CellRows(rows, int(FRAME.row_nbytes[rows].sum()))


def _rank(cache=None, previous=None, valid=()) -> _Traversal:
    """Rank 0 of 2 at the start of a step, before any walk: what the
    rank program builds, minus the engine (rank 0 has no particles, so
    nothing here ever walks)."""
    cache = dict.fromkeys(COUNTERS, 0) if cache is None else cache
    return _Traversal(
        SimpleNamespace(rank=0, size=2), ParallelConfig(), None,
        CellBatch.empty(), FRAME, [key_interval(8)[0], key_interval(9)[0], END_PKEY],
        np.zeros((0, 3)), np.zeros(0), cache, previous, np.array(valid, dtype=np.uint64), [])


def _resident(rank: _Traversal) -> list[int]:
    """Keys of the fetched cells held, in row order: the order of their
    last admission."""
    return rank.table.key[rank.table.fetched()].tolist()


def _visit(rank: _Traversal, keys) -> None:
    rows, found = rank.table.lookup(np.array(keys, dtype=np.uint64))
    assert found.all()
    rank.hit(rows)


class TestCacheCounters:
    def test_get_hit_miss_counters(self):
        rank = _rank()
        rank.admit([_reply([72, 73])])
        _visit(rank, [72, 73, 72])
        assert rank.cache["hits"] == 3 and rank.cache["misses"] == 0
        assert not rank.table.lookup(np.array([74], dtype=np.uint64))[1][0]
        # Misses are booked where walks park.  Without prefetch every
        # key is requested once, after a walk missed it.
        pos = np.random.default_rng(3).random((120, 3))
        comm = parallel_tree_accelerations(
            pos, n_ranks=3, config=ParallelConfig(prefetch_rounds=0)).comm
        assert comm["cache_misses"] >= comm["requests"] == comm["cache_inserts"] > 0
        assert comm["cache_hits"] > 0

    def test_reinsert_refreshes_without_evicting(self):
        rank = _rank()
        rank.admit([_reply([72, 73])])
        rank.admit([_reply([72])])
        assert _resident(rank) == [73, 72]  # the second copy supersedes the first
        assert rank.cache["inserts"] == 3

    def test_peek_touches_nothing(self):
        rank = _rank()
        rank.admit([_reply([72, 73])])
        rank.table.lookup(np.array([72], dtype=np.uint64))  # not a visit: no hit
        rank.admit([_reply([74])])
        assert _resident(rank) == [72, 73, 74]
        assert rank.cache["hits"] == 0 and rank.cache["misses"] == 0

    def test_clear_preserves_counters(self):
        rank = _rank()
        rank.admit([_reply([72])])
        _visit(rank, [72])
        cold = _rank(cache=rank.cache)  # cache_across_steps=False: no previous table
        assert _resident(cold) == []
        assert cold.cache["hits"] == 1 and cold.cache["invalidated"] == 0


class TestInvalidation:
    def test_retain_valid_keeps_matching_drops_rest(self):
        rank = _rank()
        rank.admit([_reply([80, 81, 88, 96])])  # under branches 10, 10, 11, 12
        # Branch 10 kept its fingerprint, 11 changed, 12 vanished.
        after = _rank(cache=rank.cache, previous=rank.table, valid=[10])
        assert _resident(after) == [80, 81]
        assert after.cache["invalidated"] == 2
        assert after.table.branch[after.table.fetched()].tolist() == [10, 10]

    def test_snapshot_stats_includes_size(self):
        pos = np.random.default_rng(4).random((200, 3))
        config = ParallelConfig(bucket_size=8)
        comm = parallel_tree_accelerations(pos, n_ranks=3, config=config).comm
        assert comm["cache_size"] == comm["cache_inserts"] > 0


class _ModelCache:
    """``repro.core.cellcache.CellCache`` as deleted in PR 17, verbatim
    but for the docstrings, the methods the treecode never called and
    the capacity bound (the table is unbounded)."""

    def __init__(self):
        self._entries: OrderedDict = OrderedDict()
        self.stats = {"hits": 0, "misses": 0, "inserts": 0, "invalidated": 0}

    def keys(self):
        return self._entries.keys()

    def touch(self, keys):
        self.stats["hits"] += len(keys)

    def insert(self, key, record, branch_key, fingerprint):
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = (record, branch_key, fingerprint)
        self.stats["inserts"] += 1

    def retain_valid(self, branch_fingerprints):
        stale = [
            key
            for key, (_, bkey, fp) in self._entries.items()
            if branch_fingerprints.get(bkey) != fp
        ]
        for key in stale:
            del self._entries[key]
        self.stats["invalidated"] += len(stale)

    def clear(self):
        self._entries.clear()


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_table_is_the_sequential_lru(data):
    """Random admit / visit / step sequences through the table and
    through the sequential cache it replaced: same resident keys in the
    same order after every operation, same four counters."""
    model, rank = _ModelCache(), _rank()
    fps = {b: b"0" for b in BRANCHES}
    for _ in range(data.draw(st.integers(1, 12), label="operations")):
        held = list(model.keys())
        op = data.draw(st.sampled_from(["admit", "admit", "visit", "step"]), label="op")
        if op == "admit":
            # The treecode asks for what it does not hold, once a reply
            # (async) or once per parked walk (blocking: repeats).
            fresh = data.draw(st.booleans(), label="fresh")
            keys = data.draw(st.lists(REMOTE_KEYS.filter(lambda k: not fresh or k not in held),
                                      max_size=30, unique=fresh), label="reply")
            for k in keys:
                model.insert(k, None, k >> 3, fps.get(k >> 3, b""))
            rank.admit([_reply(keys)] if keys else [None])
        elif op == "visit" and held:
            keys = data.draw(st.lists(st.sampled_from(held), max_size=20), label="visited")
            model.touch(keys)
            _visit(rank, keys)
        elif op == "step":
            # Every branch keeps its fingerprint, changes it, or is gone.
            fate = data.draw(st.lists(st.sampled_from("=~x"), min_size=7, max_size=7), label="fate")
            new = {b: fps.get(b, b"back") + (b"~" if f == "~" else b"")
                   for b, f in zip(BRANCHES, fate) if f != "x"}
            if data.draw(st.booleans(), label="carry over"):
                model.retain_valid(new)
                rank = _rank(rank.cache, rank.table, list(dict(new.items() & fps.items())))
            else:
                model.clear()
                rank = _rank(rank.cache)
            fps = new
        assert _resident(rank) == list(model.keys())
        assert rank.cache == model.stats


def _server(pos, masses, box):
    keys = keys_from_positions(pos, box)
    order = np.argsort(keys, kind="stable")
    return CellServer(keys[order], pos[order], masses[order], box), keys


class TestBranchFingerprint:
    def _setup(self, seed=5):
        rng = np.random.default_rng(seed)
        pos = rng.random((200, 3)) * 0.5 + 0.25
        masses = rng.random(200)
        box = BoundingBox(np.zeros(3), 1.0)
        return pos, masses, box

    def test_identical_data_identical_fingerprint(self):
        pos, masses, box = self._setup()
        s1, _ = _server(pos, masses, box)
        s2, _ = _server(pos.copy(), masses.copy(), box)
        from repro.core.keys import ROOT_KEY
        assert s1.branch_fingerprint(ROOT_KEY) == s2.branch_fingerprint(ROOT_KEY)

    def test_moved_particle_changes_fingerprint(self):
        pos, masses, box = self._setup()
        s1, _ = _server(pos, masses, box)
        pos2 = pos.copy()
        pos2[0] += 1e-9
        s2, _ = _server(pos2, masses, box)
        from repro.core.keys import ROOT_KEY
        assert s1.branch_fingerprint(ROOT_KEY) != s2.branch_fingerprint(ROOT_KEY)

    def test_prefix_state_matters(self):
        # Two servers sharing a cell's particle run but differing in the
        # particles *before* it: the records are differences of prefix
        # sums, so the fingerprints must differ too — this is what makes
        # "same fingerprint" imply bit-identical cached records.
        pos, masses, box = self._setup()
        s1, _ = _server(pos, masses, box)
        masses2 = masses.copy()
        # Perturb the mass of the first particle in Morton order.
        keys = keys_from_positions(pos, box)
        first = int(np.argsort(keys, kind="stable")[0])
        masses2[first] *= 1.0 + 1e-12
        s2, _ = _server(pos, masses2, box)
        # Pick a deep cell whose run excludes that first particle.
        from repro.core.cellserver import key_interval
        from repro.core.keys import ROOT_KEY, child_keys
        for ck in child_keys(ROOT_KEY):
            lo, _hi = key_interval(ck)
            s, e = s1.run_of(ck)
            if s > 0 and e > s:  # run starts after the perturbed particle
                assert s1.branch_fingerprint(ck) != s2.branch_fingerprint(ck)
                break
        else:  # pragma: no cover - distribution always fills >1 octant
            pytest.skip("all particles in one octant")
