"""Tests for repro.simmpi.trace: execution traces and timelines."""

import numpy as np
import pytest

from repro.obs import Span
from repro.simmpi import (
    UniformCost,
    render_timeline,
    run,
    utilization,
)


def _staggered(comm):
    """Rank 0 computes then sends; rank 1 waits then computes."""
    if comm.rank == 0:
        yield comm.compute(flops=1e9)
        yield comm.send(b"x" * 200_000, dest=1)
    else:
        data = yield comm.recv(source=0)
        yield comm.compute(flops=2e9)
        assert len(data) == 200_000


class TestTraceCapture:
    def test_compute_intervals_recorded(self):
        result = run(_staggered, 2, UniformCost(mflops=1000.0))
        compute = [e for e in result.trace if e.cat == "compute"]
        assert len(compute) == 2
        r0 = next(e for e in compute if e.track == 0)
        assert r0.duration == pytest.approx(1.0)
        r1 = next(e for e in compute if e.track == 1)
        assert r1.duration == pytest.approx(2.0)

    def test_blocked_interval_matches_stats(self):
        result = run(_staggered, 2, UniformCost(mflops=1000.0))
        blocked = [e for e in result.trace if e.cat == "blocked" and e.track == 1]
        assert len(blocked) >= 1
        assert sum(e.duration for e in blocked) == pytest.approx(result.stats[1].blocked_s)
        assert "recv" in blocked[0].name

    def test_intervals_within_elapsed(self):
        result = run(_staggered, 2, UniformCost(mflops=1000.0))
        for e in result.trace:
            assert 0.0 <= e.t_start <= e.t_end <= result.elapsed + 1e-12

    def test_trace_disabled(self):
        from repro.simmpi import Engine

        result = Engine([_staggered, _staggered], UniformCost(), record_trace=False).run()
        assert result.trace == []

    def test_event_validation(self):
        # The trace record is the obs Span: it refuses to end before it starts.
        with pytest.raises(ValueError):
            Span("compute", 1.0, 0.5, track=0, cat="compute")


class TestUtilization:
    def test_fractions_sum_to_one(self):
        result = run(_staggered, 2, UniformCost(mflops=1000.0))
        for row in utilization(result.trace, result.elapsed, 2):
            total = row["compute"] + row["blocked"] + row["idle"]
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_waiting_rank_shows_blocked_time(self):
        result = run(_staggered, 2, UniformCost(mflops=1000.0))
        rows = utilization(result.trace, result.elapsed, 2)
        assert rows[1]["blocked"] > 0.2

    def test_validation(self):
        with pytest.raises(ValueError):
            utilization([], -1.0, 1)

    def test_zero_elapsed_empty_run_is_all_zero(self):
        # A run in which nothing happened has utilization 0.0 across
        # the board — not a ZeroDivisionError (pinned per ISSUE 3).
        rows = utilization([], 0.0, 3)
        assert rows == [
            {"rank": r, "compute": 0.0, "blocked": 0.0, "idle": 0.0}
            for r in range(3)
        ]
        # Zero-duration events at t=0 are equally harmless.
        trace = [Span("compute", 0.0, 0.0, track=0, cat="compute")]
        assert utilization(trace, 0.0, 1) == [
            {"rank": 0, "compute": 0.0, "blocked": 0.0, "idle": 0.0}
        ]


class TestTimeline:
    def test_renders_rows_per_rank(self):
        result = run(_staggered, 2, UniformCost(mflops=1000.0))
        art = render_timeline(result.trace, result.elapsed, width=40)
        lines = art.splitlines()
        assert len(lines) == 3  # header + 2 ranks
        assert "#" in lines[1]
        assert "." in lines[2]  # rank 1 spent time blocked

    def test_glyph_per_category(self):
        trace = [
            Span("compute", 0.0, 0.5, track=0, cat="compute"),
            Span("recv", 0.5, 1.0, track=0, cat="blocked"),
            Span("compute", 0.0, 1.0, track=1, cat="compute"),
            # Compute overwrites a wait on the same cells, never the reverse.
            Span("barrier", 0.0, 1.0, track=2, cat="collective"),
            Span("compute", 0.25, 0.5, track=2, cat="compute"),
            Span("crash", 0.5, 0.5, track=3, cat="failed"),
            # Not rank activity: a span of another category is left out.
            Span("host", 0.0, 1.0, track=3, cat="wall"),
        ]
        assert render_timeline(trace, 1.0, width=12).splitlines() == [
            "timeline (1s virtual, '#'=compute '.'=blocked 'X'=crash):",
            "rank   0 |######......|",
            "rank   1 |############|",
            "rank   2 |...###......|",
            "rank   3 |      X     |",
        ]

    def test_empty_trace(self):
        assert render_timeline([], 1.0) == "(empty trace)"
        other = [Span("host", 0.0, 1.0, track=0, cat="wall")]
        assert render_timeline(other, 1.0) == "(empty trace)"

    def test_validation(self):
        result = run(_staggered, 2, UniformCost(mflops=1000.0))
        with pytest.raises(ValueError):
            render_timeline(result.trace, 0.0)
        with pytest.raises(ValueError):
            render_timeline(result.trace, 1.0, width=5)

    def test_parallel_treecode_trace(self):
        # End-to-end: the parallel treecode produces a coherent trace.
        from repro.core import parallel_tree_accelerations
        from repro.simmpi import SpaceSimulatorCost

        rng = np.random.default_rng(0)
        pos = rng.random((600, 3))
        m = np.full(600, 1.0 / 600)
        result = parallel_tree_accelerations(pos, m, n_ranks=3, cost=SpaceSimulatorCost())
        assert len(result.sim.trace) > 0
        art = render_timeline(result.sim.trace, result.sim.elapsed)
        assert art.count("rank") == 3


class TestUtilizationSinglePass:
    """The engine traces' utilization is pinned in ``tests/golden``
    (``*_utilization.json``); here, what the one pass skips."""

    def test_out_of_range_ranks_ignored(self):
        trace = [Span("compute", 0.0, 1.0, track=9, cat="compute"),
                 Span("failed", 0.0, 0.5, track=0, cat="failed")]
        rows = utilization(trace, 1.0, 2)
        assert all(r["compute"] == r["blocked"] == 0.0 and r["idle"] == 1.0 for r in rows)
