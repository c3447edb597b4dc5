"""Property tests for repro.obs: nesting, monotonicity, round-trips.

Five invariants, driven by Hypothesis:

* spans produced by the context-manager API always satisfy
  ``validate_nesting`` — the recorder cannot emit a malformed forest;
* counters are monotone under any sequence of non-negative deltas;
* the Chrome-trace export/parse pair round-trips any span multiset
  after canonical float normalization;
* every span an engine run records in virtual time lies inside
  ``[0, SimResult.elapsed]`` for random rank programs;
* ``self_seconds`` of any well-nested forest equals an interval-sampling
  oracle, sums to the root durations and ignores span order, also after
  a Chrome round trip through a canonical (9-digit) dump, as the
  committed golden traces are.
"""

import json
import os
from collections import Counter as Multiset

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    Recorder,
    Span,
    canonical_floats,
    chrome_trace,
    dumps_canonical,
    parse_chrome_trace,
    self_seconds,
    validate_nesting,
)
from repro.simmpi import Comm, UniformCost, run

from tests.test_golden_trace import GOLDEN_DIR

# -- strategies ------------------------------------------------------------

finite_time = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)

span_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz-_.", min_size=1, max_size=12
)


@st.composite
def spans(draw):
    t0 = draw(finite_time)
    dur = draw(st.floats(min_value=0.0, max_value=1e3, allow_nan=False))
    return Span(
        name=draw(span_names),
        t_start=t0,
        t_end=t0 + dur,
        track=draw(st.integers(min_value=0, max_value=7)),
        cat=draw(st.sampled_from(["", "compute", "blocked", "collective", "bench"])),
    )


@st.composite
def nesting_programs(draw):
    """A random sequence of balanced push/pop operations per track."""
    ops = []
    depth = 0
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        if depth == 0 or draw(st.booleans()):
            ops.append(("push", draw(span_names)))
            depth += 1
        else:
            ops.append(("pop", None))
            depth -= 1
    ops.extend(("pop", None) for _ in range(depth))
    return ops


def _play(rec, ops, track):
    """Run a push/pop program on ``track`` of ``rec`` against a fake
    clock that ticks 1.0, 2.0, ... (every span edge a distinct, exactly
    representable time)."""
    ticks = iter(range(1, 10_000))
    rec._clock = lambda: float(next(ticks))
    rec._origin = 0.0
    stack = []
    for op, name in ops:
        if op == "push":
            ctx = rec.span(name, track=track)
            ctx.__enter__()
            stack.append(ctx)
        else:
            stack.pop().__exit__(None, None, None)


def innermost_seconds(span_list):
    """Oracle for ``self_seconds`` that is not a rollup: cut each track
    at every span edge and charge each elementary interval to the
    covering span that started last."""
    out = {}
    for track in {s.track for s in span_list}:
        group = [s for s in span_list if s.track == track]
        edges = sorted({t for s in group for t in (s.t_start, s.t_end)})
        for a, b in zip(edges, edges[1:]):
            covering = [s for s in group if s.t_start <= a and b <= s.t_end]
            if covering:
                name = max(covering, key=lambda s: s.t_start).name
                out[name] = out.get(name, 0.0) + (b - a)
    return out


def _roots(span_list):
    """Durations of the spans no other span on their track contains."""
    roots = []
    for s in sorted(span_list, key=lambda s: (s.track, s.t_start, -s.t_end)):
        if not roots or roots[-1].track != s.track or roots[-1].t_end <= s.t_start:
            roots.append(s)
    return [s.duration for s in roots]


# -- properties ------------------------------------------------------------


class TestNestingWellFormed:
    @given(nesting_programs(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=100, deadline=None)
    def test_context_manager_spans_always_nest(self, ops, track):
        rec = Recorder(clock=lambda: 0.0)
        _play(rec, ops, track)
        validate_nesting(rec.spans)
        assert len(rec.spans) == sum(1 for op, _ in ops if op == "push")


class TestSelfSeconds:
    @given(nesting_programs(), nesting_programs(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_matches_innermost_oracle(self, ops0, ops1, rng):
        # Two tracks whose clocks both restart at 1.0, so spans of one
        # overlap spans of the other without nesting in them.
        rec = Recorder(clock=lambda: 0.0)
        for track, ops in enumerate((ops0, ops1)):
            few_names = [(op, name and name[0]) for op, name in ops]
            _play(rec, [("push", "ROOT"), *few_names, ("pop", None)], track)
        table = self_seconds(rec)
        assert table == innermost_seconds(rec.spans)
        assert sum(table.values()) == sum(
            s.duration for s in rec.spans if s.name == "ROOT"
        )
        shuffled = list(rec.spans)
        rng.shuffle(shuffled)
        assert self_seconds(shuffled) == table

    @pytest.mark.parametrize("scenario", ["simmpi_4rank", "treecode_small"])
    def test_accepts_the_committed_engine_traces(self, scenario):
        with open(os.path.join(GOLDEN_DIR, f"{scenario}_trace.json")) as fh:
            spans = parse_chrome_trace(json.load(fh))
        table = self_seconds(spans)
        assert sum(table.values()) == pytest.approx(sum(_roots(spans)), rel=1e-12)
        assert min(table.values()) >= 0.0

    @given(nesting_programs(), nesting_programs(),
           st.floats(min_value=1e-6, max_value=1e3), st.floats(min_value=0.0, max_value=1e3))
    @settings(max_examples=100, deadline=None)
    def test_nesting_survives_a_canonical_dump(self, ops0, ops1, scale, offset):
        # Span edges at arbitrary decimal times, each rounded to 9
        # significant digits on the way through the dump; every other
        # tick is merged into the next, so spans touch, as an engine's
        # do (one ends where the next starts).
        rec = Recorder(clock=lambda: 0.0)
        for track, ops in enumerate((ops0, ops1)):
            _play(rec, ops, track)

        def at(tick):
            return (tick // 2) * scale + offset

        moved = [Span(s.name, at(s.t_start), at(s.t_end), s.track) for s in rec.spans]
        back = parse_chrome_trace(json.loads(dumps_canonical(chrome_trace(moved))))
        table = self_seconds(back)
        assert sum(table.values()) == pytest.approx(sum(_roots(back)), rel=1e-12, abs=1e-12)

    @given(st.lists(st.integers(min_value=0, max_value=1000),
                    min_size=4, max_size=4, unique=True).map(sorted))
    def test_partial_overlap_is_refused(self, edges):
        a, b, c, d = map(float, edges)
        with pytest.raises(ValueError, match="partially overlaps"):
            self_seconds([Span("x", a, c), Span("y", b, d)])


class TestCounterMonotone:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
                    max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_counter_never_decreases(self, deltas):
        rec = Recorder()
        seen = 0.0
        for d in deltas:
            rec.count("c", d)
            assert rec.counters["c"].value >= seen
            seen = rec.counters["c"].value
        assert seen == sum(deltas)


class TestExportRoundTrip:
    @given(st.lists(spans(), max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_chrome_trace_round_trips_span_multiset(self, span_list):
        doc = chrome_trace(span_list)
        back = parse_chrome_trace(doc)

        def key(s):
            return (s.name, s.track, s.cat,
                    canonical_floats(s.t_start), canonical_floats(s.duration))

        assert Multiset(map(key, back)) == Multiset(map(key, span_list))


class TestVirtualTimeBounds:
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
    @settings(max_examples=50, deadline=None)
    def test_engine_spans_inside_elapsed(self, n_ranks, steps):
        def program(comm: Comm):
            for kind, amount in steps:
                if kind == "compute":
                    yield comm.elapse(amount)
                elif kind == "barrier":
                    yield comm.barrier()
                elif kind == "allreduce":
                    yield comm.allreduce(comm.rank)
                elif kind == "sendrecv" and comm.size > 1:
                    peer = (comm.rank + 1) % comm.size
                    req = yield comm.isend(b"x" * 64, dest=peer)
                    yield comm.recv(source=(comm.rank - 1) % comm.size)
                    yield comm.wait(req)

        result = run(program, n_ranks, UniformCost(latency_s=1e-5, mbytes_s=100.0))
        assert result.observer is not None
        for span in result.observer.spans:
            assert span.t_start >= 0.0
            assert span.t_end <= result.elapsed + 1e-12
            assert 0 <= span.track < n_ranks
        validate_nesting(result.observer.spans)
