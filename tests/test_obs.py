"""Unit tests for the repro.obs instrumentation layer."""

import json

import pytest

from repro.obs import (
    Counter,
    Recorder,
    Span,
    chrome_trace,
    dumps_canonical,
    metrics,
    parse_chrome_trace,
    validate_nesting,
)
from repro.simmpi.trace import render_timeline


class TestSpan:
    def test_fields_and_duration(self):
        s = Span("work", 1.0, 3.5, track=2, cat="compute", args=(("n", 4),))
        assert s.duration == 2.5
        assert s.args_dict == {"n": 4}

    def test_rejects_backwards_interval(self):
        with pytest.raises(ValueError):
            Span("bad", 2.0, 1.0)

    def test_zero_width_ok_and_hashable(self):
        s = Span("crash", 1.0, 1.0, cat="failed")
        assert s.duration == 0.0
        assert len({s, Span("crash", 1.0, 1.0, cat="failed")}) == 1


class TestCounterGauge:
    def test_counter_monotone(self):
        c = Counter("bytes")
        c.add(10)
        c.add(0)
        assert c.value == 10
        with pytest.raises(ValueError):
            c.add(-1)


class TestRecorder:
    def test_explicit_spans_virtual_time(self):
        rec = Recorder()
        rec.add_span("compute", 0.0, 1.0, track=3, cat="compute")
        rec.add_span("blocked", 1.0, 1.5, track=3, cat="blocked")
        assert [s.name for s in rec.spans] == ["compute", "blocked"]
        assert rec.spans[0].track == 3

    def test_context_manager_nests(self):
        t = iter([0.0, 1.0, 2.0, 3.0, 4.0]).__next__
        rec = Recorder(clock=lambda: 0.0)
        rec._clock = t
        rec._origin = 0.0
        with rec.span("outer"):
            with rec.span("inner"):
                pass
        inner, outer = rec.spans
        assert inner.name == "inner" and outer.name == "outer"
        assert outer.t_start <= inner.t_start <= inner.t_end <= outer.t_end
        validate_nesting(rec.spans)

    def test_out_of_order_close_raises(self):
        rec = Recorder()
        a = rec.span("a")
        b = rec.span("b")
        a.__enter__()
        b.__enter__()
        with pytest.raises(RuntimeError):
            a.__exit__(None, None, None)

    def test_counters(self):
        rec = Recorder()
        rec.count("ops")
        rec.count("ops", 4)
        assert rec.counters["ops"].value == 5
        assert rec.counter("ops") is rec.counters["ops"]

    def test_span_args_frozen_sorted(self):
        rec = Recorder()
        rec.add_span("s", 0, 1, args={"b": 2, "a": 1})
        assert rec.spans[0].args == (("a", 1), ("b", 2))


class TestValidateNesting:
    def test_accepts_forest(self):
        validate_nesting([
            Span("p", 0.0, 4.0), Span("c1", 0.5, 1.5), Span("c2", 2.0, 3.0),
            Span("other-track", 1.0, 9.0, track=1),
        ])

    def test_rejects_partial_overlap(self):
        with pytest.raises(ValueError, match="partially overlaps"):
            validate_nesting([Span("a", 0.0, 2.0), Span("b", 1.0, 3.0)])

    def test_different_tracks_may_overlap(self):
        validate_nesting([Span("a", 0.0, 2.0), Span("b", 1.0, 3.0, track=1)])


class TestChromeTrace:
    def _rec(self):
        rec = Recorder()
        rec.add_span("compute", 0.0, 1.25, track=0, cat="compute", args={"n": 7})
        rec.add_span("recv", 1.25, 2.0, track=1, cat="blocked")
        rec.count("bytes", 4096)
        return rec

    def test_document_shape(self):
        doc = chrome_trace(self._rec(), process_name="unit")
        evs = doc["traceEvents"]
        assert doc["displayTimeUnit"] == "ms"
        assert [e["ph"] for e in evs] == ["M", "M", "M", "X", "X", "C"]
        meta = evs[0]
        assert meta["args"]["name"] == "unit"
        x = [e for e in evs if e["ph"] == "X"]
        assert x[0]["ts"] == 0.0 and x[0]["dur"] == 1.25e6
        assert x[0]["tid"] == 0 and x[1]["tid"] == 1
        assert x[0]["args"]["n"] == 7
        assert json.loads(json.dumps(doc)) == doc  # JSON-serializable

    def test_track_names(self):
        doc = chrome_trace(self._rec(), track_names={0: "boss"})
        names = [e["args"]["name"] for e in doc["traceEvents"] if e["name"] == "thread_name"]
        assert names == ["boss", "rank 1"]

    def test_round_trip_exact(self):
        rec = self._rec()
        spans = parse_chrome_trace(chrome_trace(rec))
        assert sorted(spans, key=lambda s: s.t_start) == sorted(
            rec.spans, key=lambda s: s.t_start
        )

    def test_parse_survives_args_stripped(self):
        # A trace round-tripped through a µs-only consumer still parses.
        doc = chrome_trace(self._rec())
        for ev in doc["traceEvents"]:
            if ev["ph"] == "X":
                ev["args"] = {}
        spans = parse_chrome_trace(doc)
        assert spans[0].t_end == pytest.approx(1.25, abs=1e-9)

    def test_plain_span_iterable_source(self):
        doc = chrome_trace([Span("s", 0.0, 1.0)])
        assert sum(e["ph"] == "X" for e in doc["traceEvents"]) == 1
        assert not any(e["ph"] == "C" for e in doc["traceEvents"])


class TestMetrics:
    def test_flat_keys(self):
        rec = Recorder()
        rec.add_span("load", 0.0, 1.0)
        rec.add_span("load", 2.0, 2.5)
        rec.count("ops", 10)
        m = metrics(rec)
        assert m == {"span.load.count": 2, "span.load.total_s": 1.5, "counter.ops": 10}


class TestCanonicalDumps:
    def test_byte_stable(self):
        a = dumps_canonical({"x": 0.1 + 0.2, "y": [1, 2.0]})
        b = dumps_canonical({"y": [1, 2.0], "x": 0.3})
        assert a == b
        assert a.endswith("\n")

    def test_ints_and_bools_untouched(self):
        assert dumps_canonical({"i": 3, "b": True, "n": None}) == (
            '{"b":true,"i":3,"n":null}\n'
        )

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            dumps_canonical({"x": float("nan")})


class TestRenderSpans:
    """The ASCII Gantt chart of a span list, drawn by ``render_timeline``."""

    def test_basic_rendering(self):
        spans = [
            Span("compute", 0.0, 0.5, track=0, cat="compute"),
            Span("recv", 0.5, 1.0, track=0, cat="blocked"),
            Span("compute", 0.0, 1.0, track=1, cat="compute"),
        ]
        out = render_timeline(spans, 1.0, n_ranks=2, width=12)
        lines = out.splitlines()
        assert "timeline" in lines[0]
        assert lines[1].startswith("rank   0 |")
        assert "#" in lines[1] and "." in lines[1]
        assert set(lines[2].split("|")[1]) == {"#"}

    def test_empty_and_validation(self):
        assert render_timeline([], 1.0, n_ranks=1) == "(empty trace)"
        span = Span("s", 0, 1, track=0, cat="compute")
        with pytest.raises(ValueError):
            render_timeline([span], 0.0, n_ranks=1)
        with pytest.raises(ValueError):
            render_timeline([span], 1.0, n_ranks=1, width=5)

    def test_symbols_table(self):
        spans = [
            Span("compute", 0.0, 1.0, track=0, cat="compute"),
            Span("crash", 0.0, 0.0, track=1, cat="failed"),
        ]
        rows = render_timeline(spans, 1.0, width=10).splitlines()[1:]
        assert rows[0] == "rank   0 |" + "#" * 10 + "|"
        assert rows[1] == "rank   1 |X" + " " * 9 + "|"
