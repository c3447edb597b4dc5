"""Tests for repro.core.parallel and abm: the parallel treecode."""

import hashlib

import numpy as np
import pytest

from repro.core import (
    ABMChannel,
    ParallelConfig,
    direct_accelerations,
    parallel_nbody_run,
    parallel_tree_accelerations,
    tree_accelerations,
)
from repro.core.cellserver import CellRecord
from repro.core.celltable import KeyBatch
from repro.obs import chrome_trace, dumps_canonical
from repro.simmpi import SpaceSimulatorCost, UniformCost, payload_nbytes, run


def _cloud(n, seed=0, clustered=False):
    rng = np.random.default_rng(seed)
    if clustered:
        r = rng.random(n) ** 3
        d = rng.standard_normal((n, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        pos = r[:, None] * d
    else:
        pos = rng.random((n, 3))
    return pos, np.full(n, 1.0 / n)


def _force_only(pos, m=None, **kw):
    return parallel_tree_accelerations(pos, m, **kw)


def _one_still_step(pos, m=None, vel=None, **kw):
    return parallel_nbody_run(pos, m, vel, **{"n_steps": 1, "dt": 0.0, **kw})


def _traffic(sim):
    return sum(s.msgs_sent for s in sim.stats), sum(s.bytes_sent for s in sim.stats)


def _with(a, index, value):
    a = np.array(a, dtype=float)
    a[index] = value
    return a


class TestABMChannel:
    def test_batched_request_reply(self):
        def prog(comm):
            abm = ABMChannel(comm, lambda src, items: [i * 10 + comm.rank for i in items])
            for d in range(comm.size):
                if d != comm.rank:
                    abm.request(d, comm.rank)
                    abm.request(d, comm.rank + 100)
            replies = yield from abm.exchange()
            return [replies[d] for d in range(comm.size)]

        result = run(prog, 3)
        # Rank 0 asked rank 1 for (0, 100): replies 0*10+1, 100*10+1.
        assert result.returns[0][1] == [1, 1001]
        assert result.returns[0][2] == [2, 1002]
        assert result.returns[0][0] == []

    def test_globally_done(self):
        def prog(comm):
            abm = ABMChannel(comm, lambda src, items: items)
            done_first = yield from abm.globally_done(1 if comm.rank == 0 else 0)
            done_second = yield from abm.globally_done(0)
            return (done_first, done_second)

        result = run(prog, 4)
        assert all(r == (False, True) for r in result.returns)

    def test_self_request_rejected(self):
        def prog(comm):
            abm = ABMChannel(comm, lambda src, items: items)
            with pytest.raises(ValueError):
                abm.request(comm.rank, 1)
            yield comm.barrier()
            return "ok"

        assert run(prog, 2).returns == ["ok", "ok"]

    def test_serve_arity_checked(self):
        def prog(comm):
            abm = ABMChannel(comm, lambda src, items: [])  # wrong arity
            # Symmetric traffic so every rank hits the serve error at
            # the same point (between the two alltoalls).
            abm.request(1 - comm.rank, 42)
            try:
                yield from abm.exchange()
            except RuntimeError:
                return "caught"
            return "missed"

        result = run(prog, 2)
        assert result.returns == ["caught", "caught"]


class TestParallelCorrectness:
    def test_matches_direct_sum(self):
        pos, m = _cloud(600, seed=1)
        exact = direct_accelerations(pos, m, eps=0.05)
        den = np.linalg.norm(exact.accelerations, axis=1)
        # Both entry points run the same rank program; a still one-step
        # run must meet the bound the force-only call meets.
        for entry in (_force_only, _one_still_step):
            par = entry(pos, m, n_ranks=4,
                        config=ParallelConfig(theta=0.5, eps=0.05, bucket_size=16))
            num = np.linalg.norm(par.accelerations - exact.accelerations, axis=1)
            assert np.median(num / den) < 1e-3
            assert np.max(num / den) < 0.05

    def test_matches_serial_treecode_closely(self):
        pos, m = _cloud(500, seed=2, clustered=True)
        cfg = ParallelConfig(theta=0.5, eps=0.05, bucket_size=16)
        serial = tree_accelerations(pos, m, theta=0.5, eps=0.05, bucket_size=16)
        par = parallel_tree_accelerations(pos, m, n_ranks=5, config=cfg)
        num = np.linalg.norm(par.accelerations - serial.accelerations, axis=1)
        den = np.linalg.norm(serial.accelerations, axis=1)
        # Both approximate the same physics with the same MAC; their
        # disagreement is bounded by twice the MAC error.
        assert np.median(num / den) < 2e-3

    def test_rank_count_invariance(self):
        # The virtual global tree is rank-independent, so forces agree
        # across processor counts to MAC-error level.
        pos, m = _cloud(400, seed=3)
        cfg = ParallelConfig(theta=0.6, eps=0.05, bucket_size=16)
        results = [
            parallel_tree_accelerations(pos, m, n_ranks=p, config=cfg).accelerations
            for p in (1, 2, 7)
        ]
        for other in results[1:]:
            num = np.linalg.norm(other - results[0], axis=1)
            den = np.linalg.norm(results[0], axis=1)
            assert np.median(num / den) < 2e-3

    def test_single_rank_runs(self):
        pos, m = _cloud(100, seed=4)
        par = parallel_tree_accelerations(pos, m, n_ranks=1)
        exact = direct_accelerations(pos, m, eps=0.05)
        num = np.linalg.norm(par.accelerations - exact.accelerations, axis=1)
        den = np.linalg.norm(exact.accelerations, axis=1)
        assert np.median(num / den) < 2e-3

    def test_potentials_match_direct(self):
        pos, m = _cloud(300, seed=5)
        exact = direct_accelerations(pos, m, eps=0.05)
        par = parallel_tree_accelerations(
            pos, m, n_ranks=3, config=ParallelConfig(theta=0.4, eps=0.05)
        )
        assert np.allclose(par.potentials, exact.potentials, rtol=5e-3)

    def test_deterministic(self):
        pos, m = _cloud(250, seed=6)
        a = parallel_tree_accelerations(pos, m, n_ranks=4)
        b = parallel_tree_accelerations(pos, m, n_ranks=4)
        assert np.array_equal(a.accelerations, b.accelerations)
        assert a.sim.clocks == b.sim.clocks

    def test_interaction_counts_reported(self):
        pos, m = _cloud(300, seed=7)
        par = parallel_tree_accelerations(pos, m, n_ranks=3)
        assert par.counts.p2p > 0
        assert par.counts.p2c > 0
        assert par.counts.groups > 0
        assert par.counts.flops > 0

    def test_validation(self, monkeypatch):
        def engine_started(*args, **kwargs):
            raise AssertionError("a rank program started on refused input")

        monkeypatch.setattr("repro.core.parallel.run", engine_started)
        pos, m = _cloud(10)
        hostile = [
            ("n_ranks", dict(n_ranks=0)),
            ("n_ranks must be an integer", dict(n_ranks=2.0)),
            ("n_ranks must be an integer", dict(n_ranks=2.5)),
            ("n_ranks must be an integer", dict(n_ranks=True)),
            ("n_ranks must be an integer", dict(n_ranks=None)),
            ("positions: need at least one particle per rank", dict(n_ranks=11)),
            ("positions: need at least one particle per rank",
             dict(pos=np.zeros((0, 3)), m=None, n_ranks=1)),
            ("positions must be \\(N, 3\\)", dict(pos=pos[:, :2])),
            ("positions must be finite", dict(pos=_with(pos, (3, 1), np.nan))),
            ("positions must be finite", dict(pos=_with(pos, (0, 0), np.inf))),
            ("masses must be \\(N,\\)", dict(m=m[:-1])),
            ("masses must be finite", dict(m=_with(m, 2, np.nan))),
            ("masses must be finite", dict(m=_with(m, 9, -np.inf))),
        ]
        moving_only = [
            ("velocities must be \\(N, 3\\)", dict(vel=np.zeros((9, 3)))),
            ("velocities must be finite", dict(vel=_with(np.zeros((10, 3)), (4, 2), np.nan))),
            ("dt must be finite", dict(dt=float("nan"))),
            ("dt must be finite", dict(dt=float("inf"))),
            ("dt must be finite", dict(dt=None)),
            ("dt must be finite", dict(dt="1e-3")),
            ("n_steps", dict(n_steps=0)),
            ("n_steps must be an integer", dict(n_steps=1.5)),
            ("n_steps must be an integer", dict(n_steps=True)),
        ]
        for entry, table in ((_force_only, hostile), (_one_still_step, hostile + moving_only)):
            for message, override in table:
                kwargs = {"pos": pos, "m": m, "n_ranks": 2, **override}
                with pytest.raises(ValueError, match=message):
                    entry(**kwargs)

    @pytest.mark.parametrize("field, values", [
        ("theta", [2.0, 0.0, -0.5, float("nan")]),
        ("eps", [-1.0, float("nan"), float("inf")]),
        ("G", [float("nan"), float("inf")]),
        ("bucket_size", [0, 2.5, "8", None, True]),
        ("oversample", [0, 16.0, True]),
        ("kernel_efficiency", [0.0, 1.5]),
        ("prefetch_rounds", [-1, 1.5, None, True, False]),
    ])
    def test_config_validation_names_the_field(self, field, values):
        for value in values:
            with pytest.raises(ValueError, match=field):
                ParallelConfig(**{field: value})
        # Anything with an __index__ but a bool is an integer.
        ParallelConfig(bucket_size=np.int64(8), prefetch_rounds=0)

    def test_no_cell_records_outlive_a_run(self):
        # The frame memo belongs to the program builder: after two
        # back-to-back runs nothing reachable from the namespace of the
        # module, or of the one that holds the walk it runs, may still
        # hold a branch cell, as a record or as table columns.
        import repro.core.parallel as mod
        import repro.core.traversal as walk_mod
        from repro.core.celltable import CellBatch

        pos, m = _cloud(120, seed=9)
        parallel_tree_accelerations(pos, m, n_ranks=3)
        parallel_nbody_run(pos, m, n_ranks=3, n_steps=2, dt=1e-3)
        seen, stack, held = set(), [v for v in [*vars(mod).values(), *vars(walk_mod).values()]
                                    if isinstance(v, (dict, list, tuple, set))], []
        while stack:
            obj = stack.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if isinstance(obj, (CellRecord, CellBatch, mod._Frame, mod._Traversal)):
                held.append(obj)
            elif isinstance(obj, dict):
                stack.extend(obj.keys())
                stack.extend(obj.values())
            elif isinstance(obj, (list, tuple, set)):
                stack.extend(obj)
        assert not held


class TestParallelPerformance:
    def test_event_sequence_pinned(self):
        # Virtual time and traffic of both entry points, as measured at
        # the commit before the two rank programs became one (PR 12).
        # They are pure functions of the event sequence each rank yields;
        # a refactor of repro.core.parallel must not move them.
        pos, m = _cloud(300, seed=8)
        cfg = ParallelConfig(theta=0.6, eps=0.05, bucket_size=16)
        force = parallel_tree_accelerations(
            pos, m, n_ranks=4, config=cfg, cost=SpaceSimulatorCost())
        assert force.sim.elapsed.hex() == "0x1.4459d7bb59bdfp-8"
        assert _traffic(force.sim) == (56, 102680)
        steps = parallel_nbody_run(
            pos, m, n_ranks=4, n_steps=2, dt=1e-3, config=cfg, cost=SpaceSimulatorCost())
        assert steps.sim.elapsed.hex() == "0x1.5313c474b613cp-7"
        assert _traffic(steps.sim) == (120, 220008)

    def test_virtual_time_positive_with_cost_model(self):
        pos, m = _cloud(400, seed=8)
        par = parallel_tree_accelerations(
            pos, m, n_ranks=4, cost=SpaceSimulatorCost()
        )
        assert par.sim.elapsed > 0
        assert par.mflops_per_proc > 0
        assert all(s.bytes_sent > 0 for s in par.sim.stats)

    def test_more_ranks_less_elapsed_time(self):
        # Strong scaling on a fixed problem: 8 simulated processors
        # should beat 1 by a wide margin under a uniform cost model.
        pos, m = _cloud(3000, seed=9)
        cost = UniformCost(latency_s=50e-6, mbytes_s=90.0, mflops=40.0)
        t1 = parallel_tree_accelerations(pos, m, n_ranks=1, cost=cost).sim.elapsed
        t8 = parallel_tree_accelerations(pos, m, n_ranks=8, cost=cost).sim.elapsed
        assert t8 < t1
        assert t1 / t8 > 3.0

    def test_parallel_efficiency_below_one_with_comm(self):
        pos, m = _cloud(600, seed=10)
        par = parallel_tree_accelerations(
            pos, m, n_ranks=6, cost=SpaceSimulatorCost()
        )
        eff = par.sim.parallel_efficiency()
        assert 0.0 < eff <= 1.0


class TestRequestBatchWireSize:
    """Request batches travel as ``uint64`` arrays that declare the wire
    size of the list of Python ints they replaced."""

    @pytest.mark.parametrize("n", [0, 1, 1000])
    def test_declared_nbytes_is_the_int_list_walk(self, n):
        keys = np.arange(1, n + 1, dtype=np.uint64) << np.uint64(40)
        batch = KeyBatch(keys)
        assert len(batch) == n and bool(batch) == (n > 0)
        assert payload_nbytes(batch) == payload_nbytes(keys.tolist()) == 16 * n

    def test_modelled_bytes_and_sampled_trace_pinned(self):
        # Per-rank bytes as measured before request batches became arrays,
        # and the hash of the Chrome trace of every rank (the export that
        # carries each span's two ends, ``t_end_s``) as computed before
        # per-rank trace sampling was removed.
        pos = np.random.default_rng(2003).random((160, 3))
        plain = parallel_tree_accelerations(
            pos, n_ranks=8, cost=SpaceSimulatorCost(), record_trace=False)
        assert [s.bytes_sent for s in plain.sim.stats] == [
            9288, 14776, 9048, 18976, 14008, 18992, 18656, 17520]
        traced = parallel_tree_accelerations(
            pos, n_ranks=8, cost=SpaceSimulatorCost(), record_trace=True)
        assert traced.sim.elapsed.hex() == plain.sim.elapsed.hex() == "0x1.2fd249d3a3d6fp-7"
        assert {s.track for s in traced.sim.trace} == set(range(8))
        doc = dumps_canonical(chrome_trace(traced.sim.observer, process_name="pin"))
        assert hashlib.blake2b(doc.encode(), digest_size=16).hexdigest() == (
            "ff37823c8fa568f6283b4279a3ccfea1")
