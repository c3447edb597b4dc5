"""The decomposition a rank derives: its occupied cover and the splitters.

``occupied_cover`` is held to its spec, ``cover_interval`` filtered to
the cells that hold a key, and ``CellServer.subtree`` of it to the
subtree of the whole cover, column for column.  The splitters are
derived once per allgathered sample set: every rank gets the very same
read-only values, and the memo belongs to one run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BoundingBox,
    CellServer,
    ParallelConfig,
    cover_interval,
    keys_from_positions,
    parallel_tree_accelerations,
)
from repro.core import domain, parallel
from repro.core.cellserver import key_spans, occupied_cover
from repro.core.celltable import CellBatch
from repro.core.domain import END_PKEY, MIN_PKEY

BOX = BoundingBox(np.zeros(3), 1.0)


@st.composite
def keys_and_interval(draw):
    """A server's sorted keys and a key interval: the whole key space,
    one key, an empty interval, or two ends drawn from the keys or
    anywhere."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 40))
    pos = rng.random((n, 3)) ** draw(st.sampled_from([1, 6]))  # uniform or clustered
    keys = keys_from_positions(pos, BOX) if n else np.empty(0, dtype=np.uint64)
    order = np.argsort(keys, kind="stable")
    anywhere = st.integers(MIN_PKEY, END_PKEY - 1)
    some_key = st.sampled_from(keys.tolist()) if n else anywhere
    kind = draw(st.sampled_from(["all", "one", "empty", "between"]))
    if kind == "all":
        lo, hi = MIN_PKEY, END_PKEY
    elif kind == "one":
        lo = draw(some_key)
        lo, hi = lo, lo + 1
    elif kind == "empty":
        lo = hi = draw(st.one_of(some_key, st.just(END_PKEY)))
    else:
        lo, hi = sorted((draw(st.one_of(some_key, anywhere)),
                         draw(st.one_of(some_key, anywhere, st.just(END_PKEY)))))
    return CellServer(keys[order], pos[order], rng.random(n) + 0.1, BOX, bucket_size=2), lo, hi


class TestOccupiedCover:
    @given(keys_and_interval())
    @settings(max_examples=150, deadline=None)
    def test_is_the_cover_filtered_to_occupied_cells(self, case):
        server, lo, hi = case
        keys = server.keys
        cover = cover_interval(lo, hi)
        first, last = key_spans(np.array(cover, dtype=np.uint64))
        held = [c for c, a, b in zip(cover, first.tolist(), last.tolist())
                if np.searchsorted(keys, np.uint64(b), side="right")
                > np.searchsorted(keys, np.uint64(a), side="left")]
        assert occupied_cover(keys, lo, hi).tolist() == held

    @given(keys_and_interval())
    @settings(max_examples=60, deadline=None)
    def test_subtree_matches_the_whole_cover(self, case):
        server, lo, hi = case
        got = server.subtree(occupied_cover(server.keys, lo, hi))
        want = server.subtree(cover_interval(lo, hi))
        for name in CellBatch.__slots__:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    def test_refuses_what_is_no_particle_key_interval(self):
        with pytest.raises(ValueError, match="particle-key space"):
            occupied_cover(np.empty(0, dtype=np.uint64), 0, 100)


class _SplitterProbe:
    """Counts ``pick_splitters`` and records what every rank's exchange
    was handed, through the module seams the program calls."""

    def __init__(self, monkeypatch):
        self.picked: list[tuple] = []
        self.cuts: list[np.ndarray] = []
        pick, exchange = parallel.pick_splitters, parallel._exchange

        def counted(samples, n_pieces):
            self.picked.append(pick(samples, n_pieces))
            return self.picked[-1]

        def recorded(comm, cols, cuts):
            self.cuts.append(cuts)
            return (yield from exchange(comm, cols, cuts))

        monkeypatch.setattr(parallel, "pick_splitters", counted)
        monkeypatch.setattr(parallel, "_exchange", recorded)


@pytest.fixture
def probe(monkeypatch):
    return _SplitterProbe(monkeypatch)


def _run(n_ranks, seed):
    pos = np.random.default_rng(seed).random((4 * n_ranks, 3))
    return parallel_tree_accelerations(pos, n_ranks=n_ranks, config=ParallelConfig(),
                                       record_trace=False)


class TestSplittersDerivedOnce:
    # 3: the engine's allgather; 40: gather and broadcast; 64: recursive
    # doubling, where every rank concatenates its own tuple of the same
    # samples.
    @pytest.mark.parametrize("n_ranks", [3, 40, 64])
    def test_every_rank_gets_the_same_read_only_splitters(self, probe, n_ranks):
        _run(n_ranks, seed=1)
        assert len(probe.picked) == 1
        (splitters,) = probe.picked
        assert isinstance(splitters, tuple) and len(splitters) == n_ranks + 1
        assert len(probe.cuts) == n_ranks
        assert all(cuts is probe.cuts[0] for cuts in probe.cuts)
        assert probe.cuts[0].tolist() == list(splitters[1:-1])
        with pytest.raises(ValueError, match="read-only"):
            probe.cuts[0][0] = 0

    def test_a_second_run_derives_its_own(self, probe):
        _run(8, seed=1)
        _run(8, seed=2)
        assert len(probe.picked) == 2 and probe.picked[0] != probe.picked[1]
        first, second = probe.cuts[:8], probe.cuts[8:]
        assert all(c is first[0] for c in first) and all(c is second[0] for c in second)
        assert second[0].tolist() == list(probe.picked[1][1:-1])

    def test_memo_rebuilds_for_new_sources_and_keeps_them_alive(self):
        memo, built = {}, []

        def build(sources):
            built.append(sources)
            return len(built)

        a, b = (object(), object()), (object(),)
        assert parallel._derived(memo, "x", a, build) == 1
        assert parallel._derived(memo, "x", tuple(a), build) == 1  # same objects: a hit
        assert parallel._derived(memo, "x", b, build) == 2
        assert parallel._derived(memo, "y", a, build) == 3  # slots are independent
        assert memo["x"][1] is b  # held, so its ids cannot be recycled


class TestSplitterArithmetic:
    @given(st.lists(st.integers(MIN_PKEY, END_PKEY - 1), min_size=1, max_size=60),
           st.integers(1, 9))
    @settings(max_examples=100, deadline=None)
    def test_pick_splitters_is_the_clamped_quantiles(self, keys, n_pieces):
        samples = [np.array(keys[i::3], dtype=np.uint64) for i in range(3)]
        merged = sorted(keys)
        want = [MIN_PKEY, *(merged[(b * len(keys)) // n_pieces] for b in range(1, n_pieces)),
                END_PKEY]
        for i in range(1, len(want)):
            want[i] = max(want[i], want[i - 1])
        assert domain.pick_splitters(samples, n_pieces) == tuple(want)

    @given(st.lists(st.integers(MIN_PKEY, END_PKEY), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_piece_bounds_cut_at_the_clamped_splitters(self, inner):
        splitters = (MIN_PKEY, *sorted(inner), END_PKEY)
        keys = np.sort(np.random.default_rng(len(inner)).integers(
            MIN_PKEY, END_PKEY, 50, dtype=np.uint64, endpoint=False))
        bounds = domain.piece_bounds(keys, domain.splitter_cuts(splitters))
        want = [0, *(int(np.searchsorted(keys, np.uint64(min(s, END_PKEY - 1))))
                     for s in splitters[1:-1]), keys.size]
        assert bounds.tolist() == want
