"""Restart orchestration: run a SimMPI job to completion under faults.

The control loop that §2.1's failure record implies but the paper never
spells out, because in 2003 it was an operator with a pager: launch the
job; when a node death kills it
(:class:`~repro.simmpi.faults.RankFailedError`), pay the restart
overhead, re-express the fault schedule relative to the relaunch, hand
every rank its last *committed* checkpoint, and go again.  Virtual time
accumulates across attempts, so the resulting wall-clock is directly
comparable to the analytic
:func:`repro.cluster.checkpoint.expected_runtime` — which is exactly
what ``benchmarks/bench_resilience.py`` validates.

The contract with the application is a **program factory**: a callable
that, given the attempt's :class:`~repro.resilience.checkpoint.Checkpointer`,
returns the rank program (SPMD) or list of programs (MPMD).  Programs
consult ``ckpt.restored(rank)`` to skip already-checkpointed work and
call ``yield from ckpt.save(...)`` at their natural consistency points.

Everything is deterministic: same programs, same cost model, same fault
plan ⇒ the same failures at the same virtual times, the same number of
restarts, and a bit-identical final :class:`~repro.simmpi.engine.SimResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..machine.node import NodeSpec, SPACE_SIMULATOR_NODE
from ..simmpi.cost import CostModel
from ..simmpi.engine import SimResult, run
from ..simmpi.faults import FaultPlan, RankFailedError
from .checkpoint import Checkpointer, CheckpointStore

__all__ = ["ResilienceConfig", "FailureRecord", "ResilientResult", "run_resilient"]

ProgramFactory = Callable[[Checkpointer], Callable | Sequence[Callable]]


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs of the restart loop.

    ``interval_s`` is the checkpoint cadence handed to the
    :class:`~repro.resilience.checkpoint.Checkpointer`; 0 means "dump at
    every opportunity the program offers".  Use
    :func:`repro.cluster.checkpoint.young_interval_seconds` for the
    analytically optimal cadence.  ``restart_s`` models detection,
    reboot/replacement, and relaunch (the paper-era half hour).
    """

    checkpoint_dir: str
    interval_s: float = 0.0
    restart_s: float = 1800.0
    max_restarts: int = 16
    node: NodeSpec = SPACE_SIMULATOR_NODE

    def __post_init__(self) -> None:
        if self.interval_s < 0 or self.restart_s < 0 or self.max_restarts < 0:
            raise ValueError("invalid resilience configuration")


@dataclass(frozen=True)
class FailureRecord:
    """One consumed crash: which rank died, and when (cumulative time)."""

    rank: int
    attempt: int
    time_in_attempt_s: float
    cumulative_time_s: float


@dataclass
class ResilientResult:
    """Outcome of a run that survived its fault schedule."""

    sim: SimResult
    attempts: int
    failures: list[FailureRecord] = field(default_factory=list)
    wall_s: float = 0.0  # lost attempts + restart overheads + final attempt
    checkpoints: int = 0
    restored_from_epoch: int | None = None  # epoch the final attempt resumed from

    @property
    def lost_s(self) -> float:
        """Virtual time burned on failed attempts and restarts."""
        return self.wall_s - self.sim.elapsed


def run_resilient(
    program_factory: ProgramFactory,
    n_ranks: int,
    *,
    cost: CostModel | None = None,
    faults: FaultPlan | None = None,
    config: ResilienceConfig,
) -> ResilientResult:
    """Run a checkpointing SimMPI job to completion under a fault plan.

    Raises ``RuntimeError`` if the job still cannot finish after
    ``config.max_restarts`` relaunches — the schedule is then denser
    than the checkpoint cadence can absorb, which is itself a finding
    (see the bench's expected-runtime blow-up at tiny MTBF).

    The result's ``failures`` records every consumed crash (rank,
    attempt, virtual time) and ``sim.observer`` holds the surviving
    attempt's trace.  Each attempt runs under the engine's default
    event budget, the one the same job gets without faults.
    """
    store = CheckpointStore(config.checkpoint_dir)
    plan = faults if faults is not None else FaultPlan()
    failures: list[FailureRecord] = []
    wall_s = 0.0
    checkpoints = 0
    for attempt in range(config.max_restarts + 1):
        latest = store.latest_committed()
        restored = (
            [store.load_rank(latest, r) for r in range(n_ranks)]
            if latest is not None
            else None
        )
        ckpt = Checkpointer(
            store,
            n_ranks,
            interval_s=config.interval_s,
            node=config.node,
            start_epoch=0 if latest is None else latest + 1,
            restored=restored,
        )
        programs = program_factory(ckpt)
        try:
            sim = run(programs, n_ranks, cost, faults=plan)
        except RankFailedError as crash:
            checkpoints += ckpt.checkpoints_written
            failures.append(
                FailureRecord(
                    rank=crash.rank,
                    attempt=attempt,
                    time_in_attempt_s=crash.time,
                    cumulative_time_s=wall_s + crash.time,
                )
            )
            # The crashed attempt burned its virtual time up to the
            # crash, then the cluster sat in repair/relaunch; the fault
            # schedule advances past both (maintenance clears pending
            # events inside the downtime window).
            wall_s += crash.time + config.restart_s
            plan = plan.shifted(crash.time + config.restart_s)
            continue
        checkpoints += ckpt.checkpoints_written
        return ResilientResult(
            sim=sim,
            attempts=attempt + 1,
            failures=failures,
            wall_s=wall_s + sim.elapsed,
            checkpoints=checkpoints,
            restored_from_epoch=latest,
        )
    raise RuntimeError(
        f"job failed to complete within {config.max_restarts} restarts "
        f"({len(failures)} node crashes consumed)"
    )
