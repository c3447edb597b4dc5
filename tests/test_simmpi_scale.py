"""Scale-conformance suite for the SimMPI engine (PR 7).

Pins the properties that make 1000+-rank runs routine *and correct*:

* a fixed workload is deterministic in virtual time at every size,
* per-rank event counts stay bounded as P grows (an event budget of a
  fixed number per rank, so a superlinear regression trips loudly),
* per-rank memory stays under a budget (``tracemalloc``),
* trace timestamps are monotone per rank,
* the tree collectives produce **bit-identical** rank returns to the
  flat engine primitives up to P = 256 (virtual *timing* differs by
  design — the tree models the log-depth network behavior — but the
  simulated program semantics may never diverge),
* the event-budget diagnostic names the hottest rank and the pending
  operations when a run blows its cap, and the default cap grows with
  the rank count.
"""

import tracemalloc
from collections import defaultdict

import pytest

from repro.simmpi import EventBudgetError, UniformCost, engine, patterns, run
from repro.simmpi.engine import (
    DEFAULT_EVENTS_PER_RANK,
    DEFAULT_MAX_EVENTS,
    Engine,
)

SCALE_SIZES = (64, 256, 1024)

#: Per-rank budgets the fixed workload must stay inside at every size.
EVENTS_PER_RANK_BUDGET = 400
MEMORY_PER_RANK_BUDGET = 32 * 1024  # bytes


def scale_workload(comm):
    """Fixed mixed workload: compute, neighbor p2p, and collectives.

    Three iterations of work + ring exchange + allreduce, then a
    tree reduce/bcast pair — the communication mix of one treecode step
    with O(1) per-rank state (no allgather: its result alone is O(P) per
    rank, which would dominate the memory budget this suite pins).
    """
    right = (comm.rank + 1) % comm.size
    total = 0
    for it in range(3):
        yield comm.compute(flops=1e6, label="work")
        req = yield comm.isend((comm.rank, it), dest=right, tag=it)
        got = yield comm.recv(tag=it)
        yield comm.wait(req)
        total += got[0]
        total = yield from patterns.allreduce(comm, total)
    lo = yield from patterns.tree_reduce(comm, total % 1009, root=0)
    lo = yield from patterns.tree_bcast(comm, lo, root=0)
    return total, lo


class TestScaleConformance:
    @pytest.mark.parametrize("size", SCALE_SIZES)
    def test_deterministic_virtual_time(self, size):
        a = run(scale_workload, size, UniformCost(), record_trace=False)
        b = run(scale_workload, size, UniformCost(), record_trace=False)
        assert a.elapsed == b.elapsed
        assert a.clocks == b.clocks
        assert a.returns == b.returns

    @pytest.mark.parametrize("size", SCALE_SIZES)
    def test_bounded_events_per_rank(self, size):
        # A cap proportional to the size is the detector: if event
        # counts grew superlinearly with P, the fixed per-rank budget
        # would trip at the larger sizes.
        res = run(
            scale_workload, size, UniformCost(), record_trace=False,
            max_events=EVENTS_PER_RANK_BUDGET * size,
        )
        assert len(res.returns) == size

    @pytest.mark.parametrize("size", SCALE_SIZES)
    def test_bounded_memory_per_rank(self, size):
        tracemalloc.start()
        try:
            run(scale_workload, size, UniformCost(), record_trace=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < size * MEMORY_PER_RANK_BUDGET, (
            f"peak {peak / size / 1024:.1f} KiB/rank at P={size}"
        )

    @pytest.mark.parametrize("size", (64, 256))
    def test_monotone_trace_timestamps(self, size):
        res = run(scale_workload, size, UniformCost())
        by_rank = defaultdict(list)
        for ev in res.trace:
            by_rank[ev.track].append(ev)
        assert set(by_rank) == set(range(size))
        for events in by_rank.values():
            for prev, cur in zip(events, events[1:]):
                assert cur.t_start >= prev.t_start
                assert cur.t_end >= prev.t_end


class TestFlatTreeBitIdentity:
    """Flat and tree collectives must be indistinguishable to the
    simulated program: every rank's return value bit-identical."""

    @staticmethod
    def _flat_workload(comm):
        x = 1.0 / (comm.rank + 3)
        s = yield comm.allreduce(x)
        xs = yield comm.allgather((comm.rank, x))
        lo = yield comm.reduce(x, root=0)
        lo = yield comm.bcast(lo, root=0)
        gathered = yield comm.gather(x, root=comm.size - 1)
        yield comm.barrier()
        return s, tuple(xs), lo, gathered

    @staticmethod
    def _tree_workload(comm):
        x = 1.0 / (comm.rank + 3)
        s = yield from patterns.tree_allreduce(comm, x)
        xs = yield from patterns.tree_allgather(comm, (comm.rank, x))
        lo = yield from patterns.tree_reduce(comm, x, root=0)
        lo = yield from patterns.tree_bcast(comm, lo, root=0)
        gathered = yield from patterns.tree_gather(comm, x, root=comm.size - 1)
        yield comm.barrier()
        return s, tuple(xs), lo, gathered

    @pytest.mark.parametrize("size", (3, 33, 64, 256))
    def test_returns_bit_identical(self, size):
        flat = run(self._flat_workload, size)
        tree = run(self._tree_workload, size)
        # repr pins the exact float bits; == would accept near-misses
        # like 0.1+0.2 vs 0.30000000000000004 being "close".
        assert repr(flat.returns) == repr(tree.returns)

    def test_treecode_accelerations_bit_identical(self):
        import numpy as np

        from repro.core.parallel import ParallelConfig, parallel_tree_accelerations

        rng = np.random.default_rng(42)
        pos = rng.random((240, 3))
        auto = parallel_tree_accelerations(
            pos, n_ranks=48, config=ParallelConfig(), record_trace=False,
        )
        forced = patterns.FLAT_COLLECTIVE_MAX
        try:
            # Force the legacy flat/dense path for the same workload.
            patterns.FLAT_COLLECTIVE_MAX = 10_000
            flat = parallel_tree_accelerations(
                pos, n_ranks=48, config=ParallelConfig(), record_trace=False,
            )
        finally:
            patterns.FLAT_COLLECTIVE_MAX = forced
        assert np.array_equal(auto.accelerations, flat.accelerations)
        assert np.array_equal(auto.potentials, flat.potentials)
        assert auto.counts == flat.counts


class TestEventBudget:
    @staticmethod
    def _chatty(comm):
        # Endless ping-pong: never finishes, only the budget stops it.
        right = (comm.rank + 1) % comm.size
        it = 0
        while True:
            req = yield comm.isend(it, dest=right, tag=it % 17)
            yield comm.recv(tag=it % 17)
            yield comm.wait(req)
            it += 1

    def test_diagnostic_names_hottest_rank_and_pending_ops(self):
        with pytest.raises(EventBudgetError) as exc:
            run(self._chatty, 4, max_events=500)
        err = exc.value
        assert "rank" in str(err)
        diag = err.diagnostic
        assert diag["cap"] == 500
        assert diag["size"] == 4
        assert diag["hottest_ranks"], "must name the busiest ranks"
        rank, count = diag["hottest_ranks"][0]
        assert 0 <= rank < 4 and count > 0
        assert isinstance(diag["rank_states"], dict)
        assert {"pending_sends", "pending_recvs", "collectives_in_flight"} <= set(diag)

    def test_per_rank_budget_scales_with_size(self, monkeypatch):
        # The default cap's per-rank slice admits the same program at
        # any size — the fix for the old flat 50M cap that 1000-rank
        # runs exhausted on sheer rank count.  Shrunk so that it binds.
        monkeypatch.setattr(engine, "DEFAULT_MAX_EVENTS", 1)
        monkeypatch.setattr(engine, "DEFAULT_EVENTS_PER_RANK", EVENTS_PER_RANK_BUDGET)
        for size in (4, 32):
            res = run(scale_workload, size, record_trace=False)
            assert len(res.returns) == size
        with pytest.raises(EventBudgetError, match="max_events") as exc:
            run(self._chatty, 8)
        assert exc.value.diagnostic["cap"] == 8 * EVENTS_PER_RANK_BUDGET

    def test_default_cap_never_stricter_than_legacy(self):
        eng = Engine([scale_workload] * 4)
        assert eng._resolve_event_budget(None) == max(
            DEFAULT_MAX_EVENTS, 4 * DEFAULT_EVENTS_PER_RANK
        )
        # An explicit max_events is honored verbatim (legacy contract).
        assert eng._resolve_event_budget(123) == 123
