"""The fault-injection + checkpoint/restart layer, end to end.

Covers the full §2.1-to-engine loop: fault taxonomy and plan algebra,
deterministic sampling from the measured failure rates, engine crash /
degradation semantics, the two-phase checkpoint store (including torn
epochs and corruption), and the restart loop's accounting.
"""

import dataclasses
import os

import numpy as np
import pytest

from repro.cluster.reliability import FailureModel
from repro.machine.node import DiskSpec, SPACE_SIMULATOR_NODE
from repro.core.snapshot import SnapshotError
from repro.resilience import (
    Checkpointer,
    CheckpointStore,
    ResilienceConfig,
    ResilientResult,
    node_crash_rate_per_hour,
    run_resilient,
    sample_fault_plan,
)
from repro.simmpi import (
    EventBudgetError,
    FaultEvent,
    FaultPlan,
    RankFailedError,
    UniformCost,
    engine,
    run,
)

COST = UniformCost(latency_s=10e-6, mbytes_s=100.0)
FAST_NODE = dataclasses.replace(
    SPACE_SIMULATOR_NODE, disk=DiskSpec(seek_ms=0.001, sustained_mbytes_s=1000.0)
)


def stepper(n_steps=20, step_s=10.0):
    """A checkpointing step-loop program factory for the runner."""

    def factory(ckpt):
        def program(comm):
            snap = ckpt.restored(comm.rank)
            step = int(snap.meta["step"]) if snap is not None else 0
            x = snap["x"].copy() if snap is not None else np.zeros(8)
            while step < n_steps:
                yield comm.elapse(step_s)
                x += comm.rank + 1
                step += 1
                yield from ckpt.save(comm, {"x": x}, meta={"step": step})
            total = yield comm.allreduce(float(x[0]))
            return (step, total)

        return program

    return factory


class TestFaultPlan:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent("meteor", 0, 1.0)
        with pytest.raises(ValueError):
            FaultEvent("crash", -1, 1.0)
        with pytest.raises(ValueError):
            FaultEvent("slow", 0, 1.0, factor=0.5, duration=1.0)
        with pytest.raises(ValueError):
            FaultEvent("link", 0, 1.0, factor=2.0, duration=0.0)

    def test_plan_sorts_and_filters(self):
        plan = FaultPlan([
            FaultEvent("crash", 1, 50.0),
            FaultEvent("slow", 0, 10.0, 2.0, 5.0),
            FaultEvent("crash", 0, 20.0),
        ])
        assert [e.time for e in plan] == [10.0, 20.0, 50.0]
        assert [e.time for e in plan.crashes()] == [20.0, 50.0]

    def test_degradation_factors_window(self):
        plan = FaultPlan([
            FaultEvent("slow", 2, 10.0, 3.0, 5.0),
            FaultEvent("link", 1, 0.0, 4.0, 100.0),
        ])
        assert plan.compute_factor(2, 9.9) == 1.0
        assert plan.compute_factor(2, 10.0) == 3.0
        assert plan.compute_factor(2, 15.0) == 1.0  # window is half-open
        assert plan.compute_factor(0, 12.0) == 1.0
        assert plan.link_factor(1, 3, 50.0) == 4.0
        assert plan.link_factor(3, 1, 50.0) == 4.0  # either endpoint
        assert plan.link_factor(0, 2, 50.0) == 1.0

    def test_shifted_consumes_history_and_clips_windows(self):
        plan = FaultPlan([
            FaultEvent("crash", 0, 100.0),
            FaultEvent("crash", 1, 300.0),
            FaultEvent("slow", 2, 150.0, 2.0, 100.0),
        ])
        after = plan.shifted(200.0)
        assert [(e.kind, e.rank, e.time) for e in after.crashes()] == [("crash", 1, 100.0)]
        slow = [e for e in after if e.kind == "slow"]
        assert slow[0].time == 0.0 and slow[0].duration == pytest.approx(50.0)

    def test_rank_validation_against_job_size(self):
        plan = FaultPlan([FaultEvent("crash", 9, 1.0)])
        with pytest.raises(ValueError):
            run(lambda comm: iter(()), 4, faults=plan)


@pytest.mark.slow
class TestSampling:
    """Monte-Carlo fault-plan sampling: slow tier with the other
    statistical tests, the deterministic plan logic stays in the fast tier."""
    def test_deterministic_in_seed(self):
        a = sample_fault_plan(16, 24.0, seed=42, crash_rate_scale=5e3)
        b = sample_fault_plan(16, 24.0, seed=42, crash_rate_scale=5e3)
        assert [(e.kind, e.rank, e.time, e.factor, e.duration) for e in a] == [
            (e.kind, e.rank, e.time, e.factor, e.duration) for e in b
        ]
        c = sample_fault_plan(16, 24.0, seed=43, crash_rate_scale=5e3)
        assert [(e.kind, e.time) for e in a] != [(e.kind, e.time) for e in c]

    def test_rates_scale_with_window_and_ranks(self):
        rate = node_crash_rate_per_hour(FailureModel())
        assert rate > 0
        # Expected crashes ~= n_ranks * rate * scale * hours; with a
        # large ensemble the draw should land in the right decade.
        plan = sample_fault_plan(100, 10.0, seed=0, crash_rate_scale=1e3)
        expected = 100 * rate * 1e3 * 10.0
        assert 0.3 * expected < len(plan.crashes()) < 3.0 * expected

    def test_events_inside_window(self):
        plan = sample_fault_plan(8, 5.0, seed=1, crash_rate_scale=2e4)
        assert all(0 <= e.time < 5.0 * 3600.0 for e in plan)


class TestEngineFaults:
    def test_crash_raises_at_exact_virtual_time(self):
        def worker(comm):
            for _ in range(100):
                yield comm.elapse(1.0)
                yield comm.barrier()

        with pytest.raises(RankFailedError) as err:
            run(worker, 4, COST, faults=FaultPlan([FaultEvent("crash", 2, 17.5)]))
        assert err.value.rank == 2
        assert err.value.time == pytest.approx(17.5)

    def test_crash_after_rank_finished_is_survivable(self):
        def worker(comm):
            yield comm.elapse(1.0 + comm.rank)

        result = run(worker, 4, COST, faults=FaultPlan([FaultEvent("crash", 0, 1.5)]))
        assert result.elapsed == pytest.approx(4.0)

    def test_slow_node_stretches_only_its_window(self):
        def worker(comm):
            yield comm.compute(flops=1e9)  # 1 s at 1 Gflop/s
            return (yield comm.now())

        cost = UniformCost(mflops=1000.0)
        base = run(worker, 1, cost).returns[0]
        slowed = run(
            worker, 1, cost,
            faults=FaultPlan([FaultEvent("slow", 0, 0.0, 5.0, 1e6)]),
        ).returns[0]
        missed = run(
            worker, 1, cost,
            faults=FaultPlan([FaultEvent("slow", 0, 10.0, 5.0, 1e6)]),
        ).returns[0]
        assert slowed == pytest.approx(5.0 * base)
        assert missed == pytest.approx(base)

    def test_link_fault_stretches_p2p(self):
        payload = np.zeros(10**6, dtype=np.uint8)

        def sender(comm):
            yield comm.send(payload, dest=1)

        def receiver(comm):
            yield comm.recv(source=0)
            return (yield comm.now())

        base = run([sender, receiver], cost=COST).returns[1]
        degraded = run(
            [sender, receiver], cost=COST,
            faults=FaultPlan([FaultEvent("link", 1, 0.0, 10.0, 1e6)]),
        ).returns[1]
        assert degraded == pytest.approx(10.0 * base, rel=1e-6)

    def test_faulted_run_is_deterministic(self):
        plan = sample_fault_plan(4, 1.0, seed=3, crash_rate_scale=0.0)

        def worker(comm):
            yield comm.compute(flops=5e8)
            total = yield comm.allreduce(comm.rank)
            return total

        r1 = run(worker, 4, COST, faults=plan)
        r2 = run(worker, 4, COST, faults=plan)
        assert r1.clocks == r2.clocks and r1.returns == r2.returns


class TestCheckpointStore:
    def test_two_phase_commit_ignores_torn_epoch(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        for rank in range(2):
            store.write_rank(0, rank, {"x": np.arange(3)})
        store.commit(0, {"step": 5})
        # Epoch 1 written but never committed (crash mid-dump).
        store.write_rank(1, 0, {"x": np.arange(4)})
        assert store.epochs() == [0, 1]
        assert store.latest_committed() == 0
        assert store.commit_meta(0) == {"step": 5}
        with pytest.raises(SnapshotError):
            store.load_rank(1, 0)

    def test_corrupted_array_detected_on_restart(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.write_rank(0, 0, {"x": np.arange(10, dtype=np.float64)})
        store.commit(0)
        # Flip bytes in the array file, keep shape/dtype valid.
        path = os.path.join(store.rank_dir(0, 0), "x.npy")
        arr = np.load(path)
        arr[3] = -999.0
        np.save(path, arr)
        with pytest.raises(SnapshotError, match="checksum"):
            store.load_rank(0, 0)

    def test_no_restart_point_when_empty(self, tmp_path):
        assert CheckpointStore(str(tmp_path)).latest_committed() is None


class TestCheckpointer:
    def test_interval_gates_saves(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        ckpt = Checkpointer(store, 2, interval_s=35.0, node=FAST_NODE)

        def program(comm):
            wrote = []
            for step in range(6):
                yield comm.elapse(10.0)
                did = yield from ckpt.save(comm, {"x": np.zeros(4)}, meta={"step": step})
                wrote.append(did)
            return wrote

        result = run(program, 2)
        # Due at t=10 (first call: 10 >= ... no, interval 35 -> t=40, 80...)
        assert result.returns[0] == [False, False, False, True, False, False]
        assert store.latest_committed() == 0

    def test_force_overrides_interval(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        ckpt = Checkpointer(store, 1, interval_s=1e9, node=FAST_NODE)

        def program(comm):
            did = yield from ckpt.save(comm, {"x": np.zeros(2)}, force=True)
            return did

        assert run(program, 1).returns == [True]
        assert store.latest_committed() == 0

    def test_dump_charges_virtual_disk_time(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        node = dataclasses.replace(
            SPACE_SIMULATOR_NODE, disk=DiskSpec(seek_ms=0.0, sustained_mbytes_s=10.0)
        )
        ckpt = Checkpointer(store, 1, node=node)
        payload = {"x": np.zeros(10**6 // 8, dtype=np.float64)}  # 1 MB -> 0.1 s

        def program(comm):
            yield from ckpt.save(comm, payload, force=True)
            return (yield comm.now())

        assert run(program, 1).returns[0] == pytest.approx(0.1, rel=1e-6)


class TestRunner:
    def test_completes_through_multiple_crashes(self, tmp_path):
        plan = FaultPlan([FaultEvent("crash", 1, 55.0), FaultEvent("crash", 3, 160.0)])
        cfg = ResilienceConfig(
            checkpoint_dir=str(tmp_path), interval_s=30.0, restart_s=20.0, node=FAST_NODE
        )
        out = run_resilient(stepper(), 4, faults=plan, config=cfg)
        assert isinstance(out, ResilientResult)
        assert out.attempts == 3
        assert [f.rank for f in out.failures] == [1, 3]
        # Cumulative crash clocks line up with the absolute schedule.
        assert [f.cumulative_time_s for f in out.failures] == pytest.approx([55.0, 160.0])
        assert out.checkpoints >= 2
        assert out.lost_s > 0
        # Science result unharmed: every rank did all 20 steps.
        expected = sum((r + 1) * 20 for r in range(4))
        assert out.sim.returns == [(20, float(expected))] * 4

    def test_matches_fault_free_returns(self, tmp_path):
        cfg_kwargs = dict(interval_s=30.0, restart_s=20.0, node=FAST_NODE)
        faulty = run_resilient(
            stepper(), 4,
            faults=FaultPlan([FaultEvent("crash", 0, 77.0)]),
            config=ResilienceConfig(checkpoint_dir=str(tmp_path / "a"), **cfg_kwargs),
        )
        clean = run_resilient(
            stepper(), 4, faults=None,
            config=ResilienceConfig(checkpoint_dir=str(tmp_path / "b"), **cfg_kwargs),
        )
        assert clean.attempts == 1 and faulty.attempts == 2
        assert faulty.sim.returns == clean.sim.returns
        assert faulty.wall_s > clean.wall_s

    def test_reruns_are_bit_reproducible(self, tmp_path):
        plan = sample_fault_plan(4, 0.1, seed=11, crash_rate_scale=3e5)
        results = []
        for sub in ("x", "y"):
            cfg = ResilienceConfig(
                checkpoint_dir=str(tmp_path / sub), interval_s=30.0,
                restart_s=20.0, node=FAST_NODE,
            )
            results.append(run_resilient(stepper(), 4, faults=plan, config=cfg))
        a, b = results
        assert a.attempts == b.attempts
        assert [f.cumulative_time_s for f in a.failures] == [
            f.cumulative_time_s for f in b.failures
        ]
        assert a.wall_s == b.wall_s and a.sim.clocks == b.sim.clocks

    def test_event_budget_is_the_fault_free_one(self, tmp_path, monkeypatch):
        # A job under faults gets the budget the same job gets without
        # them: the engine's scale-aware default, shrunk here so that it
        # binds (P x 10 events, above the flat floor).
        monkeypatch.setattr(engine, "DEFAULT_MAX_EVENTS", 1)
        monkeypatch.setattr(engine, "DEFAULT_EVENTS_PER_RANK", 10)
        cfg = ResilienceConfig(checkpoint_dir=str(tmp_path), node=FAST_NODE)
        with pytest.raises(EventBudgetError) as plain:
            run(stepper()(Checkpointer(CheckpointStore(str(tmp_path / "plain")), 4)), 4, COST)
        with pytest.raises(EventBudgetError) as resilient:
            run_resilient(stepper(), 4, cost=COST, faults=FaultPlan(), config=cfg)
        assert plain.value.diagnostic["cap"] == resilient.value.diagnostic["cap"] == 40

    def test_gives_up_after_max_restarts(self, tmp_path):
        # A crash every 5 s against 10 s steps: no checkpoint can land.
        plan = FaultPlan([FaultEvent("crash", 0, 5.0 + 7.0 * i) for i in range(50)])
        cfg = ResilienceConfig(
            checkpoint_dir=str(tmp_path), interval_s=0.0, restart_s=1.0,
            max_restarts=4, node=FAST_NODE,
        )
        with pytest.raises(RuntimeError, match="restarts"):
            run_resilient(stepper(), 4, faults=plan, config=cfg)
