"""Wall-clock attribution: one recorder, spans named after layers, the
table is self seconds.

``wallclock.profile()`` records ordinary :class:`repro.obs.Span`s on a
wall-clock :class:`repro.obs.Recorder`, and the code writes to it
through ``wallclock.span`` / ``wallclock.count``: no function takes a
recorder.  Everything here goes through the one span model:
:func:`repro.obs.self_seconds` for the table,
:func:`repro.obs.validate_nesting` for well-formedness and
``chrome_trace`` -> JSON -> ``parse_chrome_trace`` for persistence.  On
every span list, synthetic (fake clock) or recorded from a live run of
an entry point, the table must partition the root span exactly.
"""

import json
import time

import numpy as np
import pytest

from repro.campaign import ClusterSpec, PipelineSpec, run_campaign
from repro.core import ParallelConfig, parallel_nbody_run
from repro.core import parallel as core_parallel
from repro.obs import (
    Recorder,
    Span,
    chrome_trace,
    parse_chrome_trace,
    self_seconds,
    validate_nesting,
)
from repro.obs import wallclock as wc
from repro.pipeline import STAGE_NAMES, run_pipeline
from repro.simmpi import run as simmpi_run

from tests.test_backend_threads import split_at_any_size, split_backend
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
            with wc.span("simmpi.engine"):          # other: 0..1
                with wc.span("gravity.kernel.cells"):  # engine: 1..3, kernel: 3..6
                    pass
                                                      # engine: 6..7, other: 7..10
        assert self_seconds(rec) == {
            "other": 4.0, "simmpi.engine": 3.0, "gravity.kernel.cells": 3.0}
        assert rec.spans[-1].duration == 10.0

    def test_finalize_unwinds_open_buckets(self):
        # An exception inside nested spans closes them innermost first
        # on its way out, and the partition still holds.
        with pytest.raises(KeyError):
            with wc.profile(clock=_fake_clock([0.0, 1.0, 2.0, 5.0, 6.0, 8.0])) as rec:
                with wc.span("simmpi.engine"):
                    with wc.span("simmpi.dispatch"):
                        raise KeyError("mid-flight")
        assert wc.ACTIVE is None
        assert [s.name for s in rec.spans] == ["simmpi.dispatch", "simmpi.engine", "other"]
        table = self_seconds(rec)
        assert table == {"other": 3.0, "simmpi.engine": 2.0, "simmpi.dispatch": 3.0}
        assert sum(table.values()) == rec.spans[-1].duration == 8.0

    def test_engine_splits_rank_host_time_by_compute_label(self):
        # A clock that ticks 1.0 a read.  The engine opens its span at 2
        # and its label clock at 3; the resumes read (4, 5) -> "a",
        # (6, 9) around the kernel span 7..8 -> "b" (the label the
        # interval ends on), then (10, 11) and the return (14, 15) ->
        # "b": a = 1, b = 3 - 1 + 1 + 1.  Laid end to end from 3, "b"
        # wraps the kernel span whole; the dispatch 12..13 stays out.
        def prog(comm):
            yield comm.compute(1.0, label="a")
            with wc.span("gravity.kernel.cells"):
                pass
            yield comm.compute(1.0, label="b")
            yield comm.barrier()

        tick = iter(range(100))
        with wc.profile(clock=lambda: float(next(tick))) as rec:
            simmpi_run(prog, 1)
        validate_nesting(rec.spans)
        assert [(s.name, s.t_start, s.t_end) for s in rec.spans[2:4]] == [
            ("core.parallel.a", 3.0, 4.0), ("core.parallel.b", 4.0, 9.0)]
        assert self_seconds(rec) == {
            "other": 2.0, "simmpi.engine": 8.0, "simmpi.dispatch": 1.0,
            "gravity.kernel.cells": 1.0, "core.parallel.a": 1.0, "core.parallel.b": 4.0}

    def test_exit_without_enter_raises(self):
        # What a span held across a generator yield amounts to: the
        # outer span closing while an inner one is still open.
        with wc.profile(clock=_fake_clock(range(10))):
            outer = wc.span("simmpi.engine")
            inner = wc.span("gravity.kernel.cells")
            outer.__enter__()
            inner.__enter__()
            with pytest.raises(RuntimeError, match="closed out of order"):
                outer.__exit__(None, None, None)
            inner.__exit__(None, None, None)
            outer.__exit__(None, None, None)

    def test_bucket_noop_when_inactive(self):
        assert wc.ACTIVE is None
        assert wc.span("a") is wc.span("b", cat="x", n=1)  # the shared null context
        with wc.span("gravity.kernel.cells"):
            wc.count("gravity.p2p", 3)  # must not raise or record anything
        assert wc.ACTIVE is None

    def test_profile_installs_and_restores_active(self):
        assert wc.ACTIVE is None
        with wc.profile() as rec:
            assert wc.ACTIVE is rec
            with wc.span("sph.density", cat="sph", backend="numpy"):
                wc.count("sph.density_pairs", 5)
        assert wc.ACTIVE is None
        assert [(s.name, s.cat, s.args) for s in rec.spans] == [
            ("sph.density", "sph", (("backend", "numpy"),)), ("other", "wall", ())]
        assert rec.counters["sph.density_pairs"].value == 5

    def test_prefix_table(self):
        assert [wc.bucket_of(name) for name in (
            "simmpi.engine", "simmpi.dispatch", "core.parallel.admit", "gravity.kernel.direct",
            "pipeline.halos", "pipeline.checkpoint", "campaign.compute",
            "campaign.fingerprint", "other", "unnamed")] == [
            "engine", "comm", "serialization", "kernel",
            "kernel", "serialization", "kernel", "other", "other", "other"]
        assert {b for _, b in wc.BUCKET_PREFIXES} | {"other"} == set(wc.BUCKETS)


def _synthetic():
    times = [0.0, 0.125, 0.25, 1.0, 1.5, 2.25, 4.0, 4.125]
    with wc.profile(clock=_fake_clock(times)) as rec:
        with wc.span("engine"):
            with wc.span("kernel"):
                pass
            with wc.span("comm"):
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


def _buckets(rec) -> dict:
    out = dict.fromkeys(wc.BUCKETS, 0.0)
    for name, seconds in self_seconds(rec).items():
        out[wc.bucket_of(name)] += seconds
    return out


class TestGoldenTrace:
    """A live two-rank parallel run under ``profile()``: the spans the
    instrumented call sites really record."""

    @pytest.fixture(scope="class")
    def rec(self):
        pos = np.random.default_rng(11).random((600, 3))
        with wc.profile() as rec:
            parallel_nbody_run(pos, n_ranks=2, n_steps=1, dt=1e-3)
        return rec

    def test_fixture_schema(self, rec):
        validate_nesting(rec.spans)
        assert {s.track for s in rec.spans} == {0}
        assert {s.cat for s in rec.spans} == {"wall", "gravity"}
        root = rec.spans[-1]
        assert root.name == "other"
        assert all(root.t_start <= s.t_start and s.t_end <= root.t_end for s in rec.spans)
        events = json.loads(_saved(rec))["traceEvents"]
        assert sum(ev["ph"] == "X" for ev in events) == len(rec.spans)

    def test_bucket_attribution_pinned(self, rec):
        # Pinned against the interval-sampling oracle of the property
        # suite, which charges as an enter/exit event log would.
        table = self_seconds(rec)
        labels = {f"core.parallel.{label}" for label in (
            "key-sort", "exchange-sort", "tree-build", "prefetch", "traversal", "force",
            "integrate")}
        assert set(table) == {"other", "simmpi.engine", "simmpi.dispatch", "core.parallel.admit",
                              "core.parallel.table", "gravity.kernel.cells",
                              "gravity.kernel.direct"} | labels
        assert table == innermost_seconds(rec.spans)

    def test_table_setup_is_not_the_prefetch(self, monkeypatch):
        # A rank's table is built in the resume that ends on the
        # prefetch's first charge; its own span keeps that label clean.
        init = core_parallel._Traversal.__init__

        def slow_init(self, comm, *args):
            if comm.rank == 0:
                time.sleep(0.03)
            init(self, comm, *args)

        monkeypatch.setattr(core_parallel._Traversal, "__init__", slow_init)
        pos = np.random.default_rng(11).random((200, 3))
        with wc.profile() as rec:
            parallel_nbody_run(pos, n_ranks=2, n_steps=1, dt=1e-3)
        table = self_seconds(rec)
        assert table["core.parallel.table"] >= 0.03 > table["core.parallel.prefetch"]
        assert wc.bucket_of("core.parallel.table") == "engine"

    def test_buckets_sum_exactly_to_elapsed(self, rec):
        assert sum(self_seconds(rec).values()) == rec.spans[-1].duration
        assert sum(_buckets(rec).values()) == rec.spans[-1].duration

    def test_every_instrumented_bucket_charged(self, rec):
        # A real multi-rank run: every bucket must have seen wall-clock,
        # with the engine loop and kernels carrying the bulk of it.
        table = _buckets(rec)
        for name in wc.BUCKETS:
            assert table[name] > 0.0, name
        assert table["engine"] + table["kernel"] > 0.5 * sum(table.values())

    def test_replay_is_idempotent(self, rec):
        once = _loaded(_saved(rec))
        twice = _loaded(_saved(once))
        assert self_seconds(twice) == self_seconds(once) == self_seconds(rec)
        assert _saved(twice) == _saved(once)


def _nbody(backend, tmp_path):
    pos = np.random.default_rng(5).random((400, 3))
    parallel_nbody_run(pos, n_ranks=2, n_steps=1, dt=1e-3,
                       config=ParallelConfig(backend=backend))


def _nbody_split(tmp_path):
    with split_at_any_size():
        _nbody(split_backend(2), tmp_path)


_FAST = PipelineSpec(n_side=4, a_final=0.2, sn_particles=16, sn_steps=2, with_neutrinos=False)
_CATALOG = [ClusterSpec(n_nodes=n) for n in (16, 32, 16, 64)]
_CAMPAIGN = {"campaign.fingerprint", "campaign.compute", "campaign.store", "campaign.finalize"}

#: Entry point -> (call, span names a profiled run must hold).
ENTRY_POINTS = {
    "nbody-numpy": (lambda tmp: _nbody(None, tmp),
                    {"simmpi.engine", "simmpi.dispatch", "gravity.kernel.cells"}),
    # Every force evaluation split over threads: the helper threads open
    # no span, so the table still partitions the root exactly.
    "nbody-threads": (_nbody_split,
                      {"simmpi.engine", "gravity.kernel.cells", "gravity.kernel.direct"}),
    "pipeline-checkpointed": (
        lambda tmp: run_pipeline(_FAST, checkpoint_dir=str(tmp / "ck")),
        {f"pipeline.{name}" for name in STAGE_NAMES} | {"pipeline.checkpoint", "sph.density"}),
    "campaign-1": (lambda tmp: run_campaign(_CATALOG, str(tmp / "c"), workers=1), _CAMPAIGN),
    "campaign-2": (lambda tmp: run_campaign(_CATALOG, str(tmp / "c"), workers=2), _CAMPAIGN),
}


class TestEntryPoints:
    """Each entry point under ``profile()``: one recorder, well nested,
    partitioned exactly, its layers named; without it, nothing."""

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_profiled_run_partitions_exactly(self, entry, tmp_path):
        call, expected = ENTRY_POINTS[entry]
        with wc.profile() as rec:
            call(tmp_path)
        validate_nesting(rec.spans)
        root = rec.spans[-1]
        assert root.name == "other"
        assert sum(self_seconds(rec).values()) == root.duration
        assert expected <= {s.name for s in rec.spans}

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_nothing_installed_records_nothing(self, entry, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a wall span was opened with no recorder installed")

        monkeypatch.setattr(Recorder, "span", refuse)
        ENTRY_POINTS[entry][0](tmp_path)
        assert wc.ACTIVE is None
