"""Tests for repro.obs.analysis: wait states, critical path, attribution.

The hand-built scenarios have answers worked out on paper (ISSUE 3):
a 2-rank late-sender / late-receiver pair, a 4-rank collective with one
deliberate straggler, and a critical-path fixture whose expected
segment list is written out by hand.  The golden 4-rank scenarios then
pin the two load-bearing identities on real engine runs: the critical
path partitions [0, elapsed] exactly, and every blocked second is
classified (coverage 1.0).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    WAIT_CAUSES,
    PathSegment,
    Span,
    attribute_phases,
    classify_waits,
    critical_path,
    critical_path_summary,
    load_imbalance,
    wait_summary,
)
from repro.simmpi import Comm, SpaceSimulatorCost, UniformCost, run

from tests.test_golden_trace import _simmpi_scenario, _treecode_scenario

RENDEZVOUS = 100_000  # > the engine's 64 KiB eager threshold


def _blocked(spans):
    return [s for s in spans if s.cat in ("blocked", "collective")]


class TestWaitClassification:
    def test_two_rank_late_sender(self):
        # Rank 1 posts its recv at t=0; rank 0 computes 1s before
        # sending.  All of rank 1's wait is the sender's fault.
        def program(comm: Comm):
            if comm.rank == 0:
                yield comm.elapse(1.0)
                yield comm.send(b"x" * RENDEZVOUS, dest=1)
            else:
                yield comm.recv(source=0)

        result = run(program, 2, UniformCost(latency_s=1e-5, mbytes_s=100.0))
        states = classify_waits(result.observer)
        recv_waits = [ws for ws in states if ws.span.track == 1]
        assert recv_waits, "receiver must have a blocked span"
        assert all(ws.cause == "late-sender" for ws in recv_waits)
        summary = wait_summary(result.observer)
        assert summary["coverage"] == 1.0
        assert summary["by_cause"]["late-sender"] > 0.99  # ~1s of waiting

    def test_two_rank_late_receiver(self):
        # Rendezvous send posted at t=0; the receiver shows up 1s late,
        # so the *sender* stalls on the tardy receiver.
        def program(comm: Comm):
            if comm.rank == 0:
                yield comm.send(b"x" * RENDEZVOUS, dest=1)
            else:
                yield comm.elapse(1.0)
                yield comm.recv(source=0)

        result = run(program, 2, UniformCost(latency_s=1e-5, mbytes_s=100.0))
        states = classify_waits(result.observer)
        send_waits = [ws for ws in states if ws.span.track == 0]
        assert send_waits
        assert all(ws.cause == "late-receiver" for ws in send_waits)
        assert wait_summary(result.observer)["coverage"] == 1.0

    def test_two_rank_transfer(self):
        # Both sides post at t=0: any remaining wait is wire time.
        def program(comm: Comm):
            if comm.rank == 0:
                yield comm.send(b"x" * RENDEZVOUS, dest=1)
            else:
                yield comm.recv(source=0)

        result = run(program, 2, UniformCost(latency_s=1e-5, mbytes_s=100.0))
        states = classify_waits(result.observer)
        assert states
        assert {ws.cause for ws in states} == {"transfer"}

    def test_four_rank_collective_imbalance(self):
        # Ranks 0-2 hit the barrier at t=0; rank 3 arrives 1s late.
        # The early ranks' waits are dominated by straggler time.
        def program(comm: Comm):
            if comm.rank == 3:
                yield comm.elapse(1.0)
            yield comm.barrier()

        result = run(program, 4, UniformCost(latency_s=1e-5, mbytes_s=100.0))
        states = classify_waits(result.observer)
        early = [ws for ws in states if ws.span.track != 3]
        assert len(early) == 3
        for ws in early:
            assert ws.cause == "collective-imbalance"
            assert ws.imbalance_s == pytest.approx(1.0, rel=1e-9)
            assert ws.span.args_dict["last_rank"] == 3
        summary = wait_summary(result.observer)
        assert summary["coverage"] == 1.0
        assert summary["collective_imbalance_s"] == pytest.approx(3.0, rel=1e-6)

    def test_every_cause_is_in_the_vocabulary(self):
        def program(comm: Comm):
            peer = (comm.rank + 1) % comm.size
            req = yield comm.isend(b"y" * RENDEZVOUS, dest=peer)
            yield comm.recv(source=(comm.rank - 1) % comm.size)
            yield comm.wait(req)
            yield comm.allreduce(comm.rank)

        result = run(program, 4, SpaceSimulatorCost())
        for ws in classify_waits(result.observer):
            assert ws.cause in WAIT_CAUSES
            assert ws.seconds == pytest.approx(ws.span.duration)

    def test_unclassified_without_metadata(self):
        bare = Span("mystery", 0.0, 1.0, track=0, cat="blocked")
        (ws,) = classify_waits([bare])
        assert ws.cause == "unclassified"
        assert wait_summary([bare])["coverage"] == 0.0

    def test_empty_summary_is_all_zero(self):
        summary = wait_summary([])
        assert summary["total_blocked_s"] == 0.0
        assert summary["coverage"] == 1.0
        assert summary["n_waits"] == 0


class TestCriticalPathFixture:
    def test_hand_written_path(self):
        # Rank 1 computes "produce" for 1s, its message releases rank 0
        # at t=1.5 after a recv posted at t=0; rank 0 then computes
        # "consume" until t=2.  Expected path, written out by hand:
        #   rank 1 compute [0.0, 1.0]   (the sender's work)
        #   rank 0 wait    [1.0, 1.5]   (late-sender tail of the recv)
        #   rank 0 compute [1.5, 2.0]   (the consumer's work)
        spans = [
            Span("produce", 0.0, 1.0, track=1, cat="compute"),
            Span(
                "recv from 1",
                0.0,
                1.5,
                track=0,
                cat="blocked",
                args=(("peer", 1), ("req_kind", "recv"),
                      ("t_peer", 1.0), ("t_self", 0.0)),
            ),
            Span("consume", 1.5, 2.0, track=0, cat="compute"),
        ]
        path = critical_path(spans, elapsed=2.0)
        assert path == [
            PathSegment(1, 0.0, 1.0, "compute", "produce"),
            PathSegment(0, 1.0, 1.5, "wait", "late-sender (peer 1)"),
            PathSegment(0, 1.5, 2.0, "compute", "consume"),
        ]
        summary = critical_path_summary(path)
        assert summary["length_s"] == pytest.approx(2.0, abs=1e-12)
        assert summary["rank_switches"] == 1

    def test_collective_hop_to_last_arriver(self):
        # Rank 0 waits in a barrier from t=0; rank 1 (the straggler)
        # computes until t=1 and the barrier completes at t=1.2.  The
        # path must hop from rank 0's wait to rank 1 at t_last=1.
        coll_args = (("coll", 0), ("kind", "barrier"), ("last_rank", 1),
                     ("t_arrive", 0.0), ("t_last", 1.0), ("t_op", 0.2),
                     ("wait", "collective"))
        spans = [
            Span("slow", 0.0, 1.0, track=1, cat="compute"),
            Span("collective #0 (barrier)", 0.0, 1.2, track=0,
                 cat="collective", args=coll_args),
            Span("after", 1.2, 1.5, track=0, cat="compute"),
        ]
        path = critical_path(spans, elapsed=1.5)
        assert path == [
            PathSegment(1, 0.0, 1.0, "compute", "slow"),
            PathSegment(0, 1.0, 1.2, "collective", "collective #0 (barrier)"),
            PathSegment(0, 1.2, 1.5, "compute", "after"),
        ]

    def test_gap_becomes_overhead(self):
        spans = [
            Span("a", 0.0, 1.0, track=0, cat="compute"),
            Span("b", 1.5, 2.0, track=0, cat="compute"),
        ]
        path = critical_path(spans, elapsed=2.0)
        kinds = [(seg.kind, seg.name) for seg in path]
        assert ("overhead", "untracked") in kinds
        assert sum(seg.duration for seg in path) == pytest.approx(2.0, abs=1e-12)

    def test_empty_and_zero_elapsed(self):
        assert critical_path([]) == []
        assert critical_path([Span("z", 0.0, 0.0)], elapsed=0.0) == []
        # Elapsed time with no spans at all (a run that was pure eager
        # injection gaps) is one untracked-overhead segment, so the
        # partition identity still holds.
        assert critical_path([], elapsed=0.5) == [
            PathSegment(0, 0.0, 0.5, "overhead", "untracked")
        ]


class TestCriticalPathIdentity:
    """On real engine runs, the path partitions [0, elapsed] exactly."""

    @pytest.fixture(scope="class")
    def runs(self):
        return [_simmpi_scenario(), _treecode_scenario()]

    def test_durations_sum_to_elapsed(self, runs):
        for sim in runs:
            path = critical_path(sim.observer, sim.elapsed)
            total = sum(seg.duration for seg in path)
            assert total == pytest.approx(sim.elapsed, abs=1e-9)

    def test_segments_are_contiguous(self, runs):
        for sim in runs:
            path = critical_path(sim.observer, sim.elapsed)
            assert path[0].t_start == 0.0
            assert path[-1].t_end == pytest.approx(sim.elapsed, abs=1e-12)
            for a, b in zip(path, path[1:]):
                assert a.t_end == pytest.approx(b.t_start, abs=1e-12)

    def test_blocked_time_fully_classified(self, runs):
        for sim in runs:
            assert wait_summary(sim.observer)["coverage"] == 1.0


class TestCriticalPathProperty:
    @given(
        st.integers(min_value=1, max_value=5),
        st.lists(
            st.tuples(
                st.sampled_from(["compute", "barrier", "allreduce", "sendrecv"]),
                st.floats(min_value=1e-6, max_value=0.1, allow_nan=False),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_path_length_le_elapsed_le_total_busy(self, n_ranks, steps):
        # ISSUE 3 satellite: critical-path length <= elapsed <= sum of
        # rank busy times (here the identity is exact on the left, and
        # the right holds because some rank is always busy or blocked).
        def program(comm: Comm):
            for kind, amount in steps:
                if kind == "compute":
                    yield comm.elapse(amount)
                elif kind == "barrier":
                    yield comm.barrier()
                elif kind == "allreduce":
                    yield comm.allreduce(comm.rank)
                elif kind == "sendrecv" and comm.size > 1:
                    req = yield comm.isend(b"x" * 64, dest=(comm.rank + 1) % comm.size)
                    yield comm.recv(source=(comm.rank - 1) % comm.size)
                    yield comm.wait(req)

        result = run(program, n_ranks, UniformCost(latency_s=1e-5, mbytes_s=100.0))
        path = critical_path(result.observer, result.elapsed)
        length = sum(seg.duration for seg in path)
        busy = sum(s.duration for s in result.observer.spans)
        overhead = sum(seg.duration for seg in path if seg.kind == "overhead")
        assert length <= result.elapsed + 1e-9
        # Every elapsed second is some rank's recorded work or an
        # explicit overhead gap on the path (eager injection, in-flight
        # transfer of an already-matched message).
        assert result.elapsed <= busy + overhead + 1e-9
        # ...and on this engine the partition identity is exact:
        assert length == pytest.approx(result.elapsed, abs=1e-9)
        for ws in classify_waits(result.observer):
            assert ws.cause != "unclassified"


class TestLoadImbalance:
    def test_balanced_run(self):
        def program(comm: Comm):
            yield comm.elapse(0.5)
            yield comm.barrier()

        result = run(program, 4, UniformCost())
        stats = load_imbalance(result.observer, result.elapsed)
        assert stats["n_ranks"] == 4
        assert stats["imbalance"] == pytest.approx(0.0, abs=1e-9)
        for row in stats["ranks"]:
            assert row["compute_s"] == pytest.approx(0.5, rel=1e-9)

    def test_single_straggler_dominates(self):
        def program(comm: Comm):
            yield comm.elapse(1.0 if comm.rank == 0 else 0.25)
            yield comm.barrier()

        result = run(program, 4, UniformCost())
        stats = load_imbalance(result.observer, result.elapsed)
        # mean compute = (1.0 + 3*0.25)/4 = 0.4375; peak/mean - 1
        assert stats["imbalance"] == pytest.approx(1.0 / 0.4375 - 1.0, rel=1e-6)
        assert stats["blocked_frac"] > 0.4  # three ranks waited ~0.75s

    def test_nested_spans_are_counted_once(self):
        # A wall-clock trace nests: the run span holds the kernel span,
        # which used to be counted a second time (busy frac 2).
        spans = [Span("npb.EP.W", 0.0, 0.7), Span("kernel", 0.1, 0.6),
                 Span("kernel", 0.2, 0.3), Span("tail", 0.7, 1.0)]
        (row,) = load_imbalance(spans, elapsed=1.0)["ranks"]
        assert row["compute_s"] == pytest.approx(1.0)
        assert row["compute_frac"] <= 1.0
        (row,) = load_imbalance(spans[:2], elapsed=0.7)["ranks"]
        assert row["compute_s"] == 0.7 and row["compute_frac"] == 1.0

    def test_partial_overlaps_are_summed(self):
        spans = [Span("a", 0.0, 0.6), Span("b", 0.5, 1.0),
                 Span("c", 0.0, 0.5, track=1), Span("d", 0.0, 0.5, track=1)]
        rows = load_imbalance(spans, elapsed=1.0)["ranks"]
        assert rows[0]["compute_s"] == pytest.approx(1.1)
        # An identical span lies wholly inside the first one.
        assert rows[1]["compute_s"] == 0.5

    def test_empty_source_is_all_zero(self):
        stats = load_imbalance([], elapsed=0.0, n_tracks=2)
        assert stats["imbalance"] == 0.0
        assert stats["blocked_frac"] == 0.0
        for row in stats["ranks"]:
            assert row["compute_frac"] == 0.0 and row["idle_s"] == 0.0


class TestAttribution:
    def test_seconds_predictions(self):
        spans = [
            Span("force", 0.0, 1.0, track=0, cat="compute"),
            Span("force", 1.0, 2.2, track=0, cat="compute"),
            Span("sort", 2.2, 2.3, track=0, cat="compute"),
        ]
        rows = attribute_phases(spans, {"force": 1.1, "sort": 0.5}, threshold=0.25)
        by_phase = {r["phase"]: r for r in rows}
        assert by_phase["force"]["measured_mean_s"] == pytest.approx(1.1)
        assert by_phase["force"]["diverges"] is False
        assert by_phase["sort"]["diverges"] is True  # 0.1 vs 0.5
        assert by_phase["sort"]["ratio"] == pytest.approx(0.2)

    def test_unmodeled_and_unmeasured_phases_visible(self):
        spans = [Span("mystery", 0.0, 1.0, track=0, cat="compute")]
        rows = attribute_phases(spans, {"ghost": 2.0})
        by_phase = {r["phase"]: r for r in rows}
        assert by_phase["mystery"]["predicted_s"] is None
        assert by_phase["mystery"]["diverges"] is None
        assert by_phase["ghost"]["count"] == 0
        assert by_phase["ghost"]["diverges"] is True  # measured 0 vs 2s

    def test_workload_predictions_through_perf_model(self):
        from repro.machine.node import SPACE_SIMULATOR_NODE
        from repro.machine.perfmodel import PerfModel, Workload

        model = PerfModel(SPACE_SIMULATOR_NODE)
        wl = Workload(flops=1e9)
        t = model.time_s(wl)
        spans = [Span("kernel", 0.0, t, track=0, cat="compute")]
        rows = attribute_phases(
            spans, {"kernel": {"flops": 1e9}}, model=model, threshold=0.25
        )
        (row,) = rows
        assert row["predicted_s"] == pytest.approx(t, rel=1e-12)
        assert row["ratio"] == pytest.approx(1.0, rel=1e-9)
        assert row["diverges"] is False

    def test_waits_excluded_from_phase_totals(self):
        spans = [
            Span("force", 0.0, 1.0, track=0, cat="compute"),
            Span("force", 0.0, 9.0, track=1, cat="blocked"),
        ]
        (row,) = attribute_phases(spans, {})
        assert row["measured_total_s"] == pytest.approx(1.0)
