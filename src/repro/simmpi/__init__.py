"""SimMPI: a deterministic discrete-event MPI for single-process runs.

The substrate every parallel component of this reproduction runs on
(see DESIGN.md section 4.1).  Rank programs are generator functions
over a :class:`~repro.simmpi.api.Comm`; the engine gives each rank a
virtual clock advanced by calibrated compute/network cost models, so
parallel *performance* (scaling curves, efficiency) is simulated with
fidelity a real laptop MPI could never provide, while the message
*semantics* (matching, collectives, reductions) execute for real on
real data.

Quick example::

    from repro.simmpi import run

    def ring(comm):
        right = (comm.rank + 1) % comm.size
        yield comm.isend(comm.rank, dest=right)
        value = yield comm.recv()
        total = yield comm.allreduce(value)
        return total

    result = run(ring, n_ranks=4)
    assert result.returns == [6, 6, 6, 6]
"""

from .._namespace import namespace

__all__, __getattr__, __dir__ = namespace(__name__, {
    ".api": (
        "ANY_SOURCE", "ANY_TAG", "SUM", "PROD", "MAX", "MIN", "Comm", "Request", "payload_nbytes",
    ),
    ".": ("patterns",),
    ".cost": ("CostModel", "ZeroCost", "UniformCost", "SpaceSimulatorCost"),
    ".engine": (
        "Engine", "run", "SimResult", "RankStats", "DeadlockError", "CollectiveMismatchError",
        "EventBudgetError",
    ),
    ".faults": ("FaultEvent", "FaultPlan", "RankFailedError"),
    ".trace": ("render_timeline", "utilization"),
})
