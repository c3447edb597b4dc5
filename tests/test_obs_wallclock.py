"""Wall-clock attribution: buckets are spans, the table is self seconds.

``wallclock.profile()`` records ordinary :class:`repro.obs.Span`s on a
wall-clock :class:`repro.obs.Recorder`, so everything here goes through
the one span model: :func:`repro.obs.self_seconds` for the table,
:func:`repro.obs.validate_nesting` for well-formedness and
``chrome_trace`` -> JSON -> ``parse_chrome_trace`` for persistence.  On
every span list, synthetic (fake clock) or recorded from a live
parallel run, the table must partition the root span exactly.
"""

import json

import numpy as np
import pytest

from repro.core import ParallelConfig, parallel_nbody_run
from repro.core.backend_wall import WallBackend
from repro.obs import (
    Span,
    chrome_trace,
    parse_chrome_trace,
    self_seconds,
    validate_nesting,
)
from repro.obs import wallclock as wc

from tests.test_obs_property import innermost_seconds


def _fake_clock(times):
    """A clock for ``profile``: the recorder reads it once for its
    origin (0.0 here), then once per span edge, ``times`` in order."""
    it = iter([0.0, *times])
    return lambda: next(it)


def _saved(source) -> str:
    return json.dumps(chrome_trace(source))


def _loaded(text: str):
    return parse_chrome_trace(json.loads(text))


class TestProfilerUnit:
    def test_innermost_bucket_charging(self):
        with wc.profile(clock=_fake_clock([0.0, 1.0, 3.0, 6.0, 7.0, 10.0])) as rec:
            with wc.bucket("engine"):      # other: 0..1
                with wc.bucket("kernel"):  # engine: 1..3, kernel: 3..6
                    pass
                                           # engine: 6..7, other: 7..10
        assert self_seconds(rec) == {"other": 4.0, "engine": 3.0, "kernel": 3.0}
        assert rec.spans[-1].duration == 10.0

    def test_finalize_unwinds_open_buckets(self):
        # An exception inside nested buckets closes them innermost
        # first on its way out, and the partition still holds.
        with pytest.raises(KeyError):
            with wc.profile(clock=_fake_clock([0.0, 1.0, 2.0, 5.0, 6.0, 8.0])) as rec:
                with wc.bucket("engine"):
                    with wc.bucket("comm"):
                        raise KeyError("mid-flight")
        assert wc.ACTIVE is None
        assert [s.name for s in rec.spans] == ["comm", "engine", "other"]
        table = self_seconds(rec)
        assert table == {"other": 3.0, "engine": 2.0, "comm": 3.0}
        assert sum(table.values()) == rec.spans[-1].duration == 8.0

    def test_exit_without_enter_raises(self):
        # What a bucket held across a generator yield amounts to: the
        # outer span closing while an inner one is still open.
        with wc.profile(clock=_fake_clock(range(10))):
            outer = wc.bucket("engine")
            inner = wc.bucket("kernel")
            outer.__enter__()
            inner.__enter__()
            with pytest.raises(RuntimeError, match="closed out of order"):
                outer.__exit__(None, None, None)
            inner.__exit__(None, None, None)
            outer.__exit__(None, None, None)

    def test_bucket_noop_when_inactive(self):
        assert wc.ACTIVE is None
        assert wc.bucket("kernel") is wc.bucket("engine")  # the shared null context
        with wc.bucket("kernel"):
            pass  # must not raise or record anything

    def test_profile_installs_and_restores_active(self):
        assert wc.ACTIVE is None
        with wc.profile() as rec:
            assert wc.ACTIVE is rec
            with wc.bucket("kernel"):
                pass
        assert wc.ACTIVE is None
        assert [(s.name, s.cat) for s in rec.spans] == [("kernel", "wall"), ("other", "wall")]


def _synthetic():
    times = [0.0, 0.125, 0.25, 1.0, 1.5, 2.25, 4.0, 4.125]
    with wc.profile(clock=_fake_clock(times)) as rec:
        with wc.bucket("engine"):
            with wc.bucket("kernel"):
                pass
            with wc.bucket("comm"):
                pass
    return rec


class TestExactPartition:
    def test_buckets_sum_exactly_to_elapsed_synthetic(self):
        rec = _synthetic()
        table = self_seconds(rec)
        assert table == {"other": 0.25, "engine": 2.375, "kernel": 0.75, "comm": 0.75}
        assert sum(table.values()) == rec.spans[-1].duration == 4.125

    def test_replay_roundtrip_is_bit_exact(self):
        rec = _synthetic()
        again = _loaded(_saved(rec))
        assert sorted(again, key=hash) == sorted(rec.spans, key=hash)
        assert self_seconds(again) == self_seconds(rec)

    def test_save_load_roundtrip(self):
        first = _saved(_synthetic())
        assert _saved(_loaded(first)) == first  # a second save: same bytes

    def test_replay_rejects_garbage(self):
        # Spans that partially overlap have no innermost span to charge.
        spans = list(_synthetic().spans)
        kernel = spans[0]
        spans[0] = Span("kernel", kernel.t_start, 2.0, cat="wall")
        with pytest.raises(ValueError, match="partially overlaps"):
            self_seconds(spans)
        assert self_seconds([]) == {}


class TestGoldenTrace:
    """A live two-rank parallel run under ``profile()``: the spans the
    instrumented call sites really record."""

    @pytest.fixture(scope="class")
    def rec(self):
        pos = np.random.default_rng(11).random((600, 3))
        with wc.profile() as rec:
            parallel_nbody_run(pos, n_ranks=2, n_steps=1, dt=1e-3,
                               config=ParallelConfig(backend=WallBackend("numpy")))
        return rec

    def test_fixture_schema(self, rec):
        validate_nesting(rec.spans)
        assert {(s.cat, s.track) for s in rec.spans} == {("wall", 0)}
        root = rec.spans[-1]
        assert root.name == "other"
        assert all(root.t_start <= s.t_start and s.t_end <= root.t_end for s in rec.spans)
        events = json.loads(_saved(rec))["traceEvents"]
        assert sum(ev["ph"] == "X" for ev in events) == len(rec.spans)

    def test_bucket_attribution_pinned(self, rec):
        # Pinned against the interval-sampling oracle of the property
        # suite, which charges as an enter/exit event log would.
        table = self_seconds(rec)
        assert set(table) == set(wc.BUCKETS)
        assert table == innermost_seconds(rec.spans)

    def test_buckets_sum_exactly_to_elapsed(self, rec):
        assert sum(self_seconds(rec).values()) == rec.spans[-1].duration

    def test_every_instrumented_bucket_charged(self, rec):
        # A real multi-rank run: every hot-path bucket must have seen
        # wall-clock, with the engine loop and kernels carrying the
        # bulk of it.
        table = self_seconds(rec)
        for name in wc.BUCKETS:
            assert table[name] > 0.0, name
        assert table["engine"] + table["kernel"] > 0.5 * sum(table.values())

    def test_replay_is_idempotent(self, rec):
        once = _loaded(_saved(rec))
        twice = _loaded(_saved(once))
        assert self_seconds(twice) == self_seconds(once) == self_seconds(rec)
        assert _saved(twice) == _saved(once)
