"""Fault-injection resilience for SimMPI runs (§2.1 made executable).

The paper's nine months of component-failure bookkeeping exist because
a 294-node commodity cluster *will* lose nodes during a multi-month
run; this package closes the loop between that failure record and the
simulation engine:

* :mod:`~repro.resilience.sampling` draws seeded
  :class:`~repro.simmpi.faults.FaultPlan` schedules from the measured
  §2.1 rates (:class:`~repro.cluster.reliability.FailureModel`);
* :mod:`~repro.resilience.checkpoint` is the data plane — a two-phase
  commit checkpoint store over :mod:`repro.core.snapshot` and the
  collective :class:`~repro.resilience.checkpoint.Checkpointer` facade
  rank programs dump through at Young's interval;
* :mod:`~repro.resilience.runner` is the control loop — catch the
  crash, pay the restart, resume every rank from the last committed
  epoch, and keep cumulative virtual time honest so results line up
  with :func:`repro.cluster.checkpoint.expected_runtime`.

Quick example::

    from repro.resilience import (
        ResilienceConfig, run_resilient, sample_fault_plan,
    )

    def factory(ckpt):
        def program(comm):
            snap = ckpt.restored(comm.rank)
            step = int(snap.meta["step"]) if snap else 0
            while step < 100:
                yield comm.elapse(360.0)   # one step of "science"
                step += 1
                yield from ckpt.save(
                    comm, {"x": state}, meta={"step": step})
            return step
        return program

    faults = sample_fault_plan(8, hours=10.0, seed=7, crash_rate_scale=2e4)
    out = run_resilient(
        factory, 8, faults=faults,
        config=ResilienceConfig(checkpoint_dir="ckpt", interval_s=1800.0),
    )
"""

from .._namespace import namespace

__all__, __getattr__, __dir__ = namespace(__name__, {
    ".checkpoint": ("Checkpointer", "CheckpointStore"),
    ".runner": ("FailureRecord", "ResilienceConfig", "ResilientResult", "run_resilient"),
    ".sampling": ("node_crash_rate_per_hour", "sample_fault_plan"),
})
