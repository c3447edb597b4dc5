"""Checkpoint/restart economics for long cluster runs.

Section 4.4's production runs take "roughly 4 months" at 32 processors
and Section 2.1 documents real failure rates; surviving such runs
requires checkpointing, and the checkpoint cadence is a genuine design
decision on a machine with the paper's disk bandwidth.  This module
provides the standard analysis:

* :func:`young_interval` — Young's optimal checkpoint interval
  ``sqrt(2 * dump_cost * MTBF)``;
* :func:`expected_runtime` — expected completion time of a run with
  exponential failures, checkpoint dumps, and restart/rework costs;
* :func:`job_mtbf_hours` — system MTBF seen by a job on ``n`` of the
  cluster's nodes, derived from the Section 2.1 component rates;
* :class:`CheckpointPlan` — everything assembled for a given job,
  including the dump cost implied by the node's local-disk bandwidth
  (the paper's parallel-local-I/O strategy makes dumps cheap, which is
  why a 24-hour 250-processor run was feasible in one piece).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from ..machine.node import NodeSpec, SPACE_SIMULATOR_NODE
from .reliability import SS_COMPONENTS, ComponentPopulation

__all__ = [
    "job_mtbf_hours",
    "young_interval",
    "young_interval_seconds",
    "expected_runtime",
    "CheckpointPlan",
    "run_campaign_scenario",
]


def run_campaign_scenario(params) -> dict:
    """Campaign entry point: one cluster-configuration scenario.

    ``params`` are the fields of
    :class:`repro.campaign.spec.ClusterSpec`: job width, useful work,
    per-node checkpoint state, and restart cost.  Evaluates the
    Section 2.1 checkpoint economics (:class:`CheckpointPlan`) for that
    configuration and returns JSON scalars only — the campaign scenario
    contract.  These scenarios are pure closed-form arithmetic, so a
    campaign can sweep thousands of cluster configurations per second;
    they are also the fast shard type the campaign test suite leans on.
    """
    plan = CheckpointPlan(
        n_nodes=int(params.get("n_nodes", 294)),
        work_hours=float(params.get("work_hours", 24.0)),
        state_bytes_per_node=float(params.get("state_gb_per_node", 6.0)) * 1e9,
        restart_hours=float(params.get("restart_hours", 0.5)),
    )
    return {
        "n_nodes": plan.n_nodes,
        "mtbf_hours": plan.mtbf_hours,
        "dump_hours": plan.dump_hours,
        "optimal_interval_hours": plan.optimal_interval_hours,
        "expected_wall_hours": plan.expected_wall_hours,
        "overhead_fraction": plan.overhead_fraction,
        "expected_failures": plan.expected_failures,
    }


def job_mtbf_hours(
    n_nodes: int, components: tuple[ComponentPopulation, ...] = SS_COMPONENTS
) -> float:
    """MTBF experienced by a job spanning ``n_nodes`` nodes.

    Sums the per-node failure rates of every component class (scaled
    by count-per-node on the 294-node reference cluster) and inverts.
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    per_node_rate = 0.0
    for comp in components:
        per_unit = comp.failures_per_hour
        units_per_node = comp.count / 294.0
        per_node_rate += per_unit * units_per_node
    if per_node_rate == 0:
        return math.inf
    return 1.0 / (per_node_rate * n_nodes)


def young_interval(dump_hours: float, mtbf_hours: float) -> float:
    """Young's first-order optimal checkpoint interval."""
    if dump_hours <= 0 or mtbf_hours <= 0:
        raise ValueError("dump cost and MTBF must be positive")
    return math.sqrt(2.0 * dump_hours * mtbf_hours)


def young_interval_seconds(
    n_nodes: int,
    state_bytes_per_node: float,
    node: NodeSpec = SPACE_SIMULATOR_NODE,
) -> float:
    """Young's interval, in virtual seconds, for a live SimMPI job.

    Convenience bridge for :mod:`repro.resilience`: the dump cost comes
    from the node's local-disk write bandwidth (the paper's parallel
    local-I/O strategy) and the MTBF from the §2.1 component rates.
    """
    if state_bytes_per_node <= 0:
        raise ValueError("state_bytes_per_node must be positive")
    dump_hours = node.disk.write_time_s(state_bytes_per_node / 1e6) / 3600.0
    return young_interval(dump_hours, job_mtbf_hours(n_nodes)) * 3600.0


def expected_runtime(
    work_hours: float,
    dump_hours: float,
    mtbf_hours: float,
    interval_hours: float | None = None,
    restart_hours: float = 0.5,
) -> float:
    """Expected wall time of a checkpointed run under random failures.

    The standard first-order model: each interval of useful work ``tau``
    costs ``tau + dump``; a failure (rate ``1/M``) loses on average half
    an interval plus the restart.  Expected time
    ``= work * (1 + dump/tau) * (1 + (tau/2 + restart)/M)``.
    """
    if work_hours <= 0:
        raise ValueError("work_hours must be positive")
    if restart_hours < 0:
        raise ValueError("restart_hours must be non-negative")
    tau = young_interval(dump_hours, mtbf_hours) if interval_hours is None else interval_hours
    if tau <= 0:
        raise ValueError("checkpoint interval must be positive")
    overhead = 1.0 + dump_hours / tau
    failure_tax = 1.0 + (tau / 2.0 + restart_hours) / mtbf_hours
    return work_hours * overhead * failure_tax


@dataclass(frozen=True)
class CheckpointPlan:
    """Checkpoint strategy for a specific job on the cluster."""

    n_nodes: int
    work_hours: float
    state_bytes_per_node: float
    node: NodeSpec = SPACE_SIMULATOR_NODE
    restart_hours: float = 0.5

    def __post_init__(self) -> None:
        """Refuse a field no derived number could be right for (NaN
        fails every test), naming it: the numbers below are cached."""
        for name, ok, want in (
            ("n_nodes", self.n_nodes >= 1, ">= 1"),
            ("work_hours", 0 < self.work_hours < math.inf, "> 0 and finite"),
            ("state_bytes_per_node", 0 < self.state_bytes_per_node < math.inf, "> 0 and finite"),
            ("restart_hours", 0 <= self.restart_hours < math.inf, ">= 0 and finite"),
        ):
            if not ok:
                raise ValueError(
                    f"CheckpointPlan.{name} must be {want}, got {getattr(self, name)!r}")

    # The plan is frozen, so each number is worked out once, on first use.
    @cached_property
    def dump_hours(self) -> float:
        """Checkpoint cost with the paper's parallel-local-disk I/O."""
        seconds = self.node.disk.write_time_s(self.state_bytes_per_node / 1e6)
        return seconds / 3600.0

    @cached_property
    def mtbf_hours(self) -> float:
        return job_mtbf_hours(self.n_nodes)

    @cached_property
    def optimal_interval_hours(self) -> float:
        return young_interval(self.dump_hours, self.mtbf_hours)

    @cached_property
    def expected_wall_hours(self) -> float:
        return expected_runtime(
            self.work_hours, self.dump_hours, self.mtbf_hours,
            self.optimal_interval_hours, self.restart_hours,
        )

    @property
    def overhead_fraction(self) -> float:
        """Fractional time lost to dumps, rework, and restarts."""
        return self.expected_wall_hours / self.work_hours - 1.0

    @property
    def expected_failures(self) -> float:
        return self.expected_wall_hours / self.mtbf_hours
