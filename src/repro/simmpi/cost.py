"""Virtual-time cost models for SimMPI.

The engine charges three kinds of time:

* **compute** — a :class:`~repro.machine.perfmodel.Workload` executed on
  the rank's node (roofline model);
* **point-to-point** — a message between two ranks, costed by the
  messaging-stack model and degraded by the switch-fabric locality of
  the two endpoints (same module / cross module / cross trunk);
* **collective** — tree/ring algorithm estimates built from the p2p
  cost, matching what LAM/mpich actually implement.

:class:`ZeroCost` makes every operation free, which turns SimMPI into a
pure algorithm checker — handy in tests where only message *semantics*
matter.  :class:`SpaceSimulatorCost` is the calibrated model of the
actual cluster (LAM 6.5.9 -O over the Foundry fabric, P4 nodes).
"""

from __future__ import annotations

import math

from ..machine.node import NodeSpec, SPACE_SIMULATOR_NODE
from ..machine.perfmodel import PerfModel, Workload
from ..network.stacks import LAM_O, MessagingStack
from ..network.switch import MODULE_RAW_MBITS, SPACE_SIMULATOR_FABRIC, FabricModel

__all__ = ["CostModel", "ZeroCost", "UniformCost", "SpaceSimulatorCost"]


class CostModel:
    """Interface the engine consumes."""

    #: Eager-protocol threshold (bytes): sends at or below complete at
    #: the sender.  Subclasses may override to model a different stack.
    eager_nbytes: int = 64 * 1024

    def compute_time(self, rank: int, workload: Workload) -> float:
        raise NotImplementedError

    def p2p_time(self, src: int, dst: int, nbytes: int) -> float:
        raise NotImplementedError

    def collective_time(self, kind: str, size: int, nbytes: int) -> float:
        """Default: log-tree of p2p hops for rooted/latency collectives,
        ring terms for all-to-all style data movement."""
        if size <= 1:
            return 0.0
        rounds = max(1, math.ceil(math.log2(size)))
        if kind == "barrier":
            return rounds * self.p2p_time(0, size - 1, 0)
        if kind in ("bcast", "reduce"):
            return rounds * self.p2p_time(0, size - 1, nbytes)
        if kind == "allreduce":
            # reduce-scatter + allgather (Rabenseifner) ~ 2 x ring of n/P
            ring = (size - 1) * self.p2p_time(0, size - 1, max(nbytes // size, 1))
            return 2.0 * ring + rounds * self.p2p_time(0, size - 1, 0)
        if kind in ("gather", "scatter", "allgather"):
            return (size - 1) * self.p2p_time(0, size - 1, nbytes)
        if kind == "alltoall":
            per_peer = max(nbytes // size, 1)
            return (size - 1) * self.p2p_time(0, size - 1, per_peer)
        raise ValueError(f"unknown collective kind {kind!r}")


class ZeroCost(CostModel):
    """Every operation is instantaneous (semantics-only simulation)."""

    def compute_time(self, rank: int, workload: Workload) -> float:
        return 0.0

    def p2p_time(self, src: int, dst: int, nbytes: int) -> float:
        return 0.0

    def collective_time(self, kind: str, size: int, nbytes: int) -> float:
        return 0.0


class UniformCost(CostModel):
    """Flat latency/bandwidth network and fixed-rate CPUs.

    Useful for controlled experiments (e.g. testing that halving the
    bandwidth parameter doubles large-message time) without dragging in
    the full hardware catalog.
    """

    def __init__(
        self,
        *,
        latency_s: float = 50e-6,
        mbytes_s: float = 100.0,
        mflops: float = 1000.0,
    ):
        if latency_s < 0 or mbytes_s <= 0 or mflops <= 0:
            raise ValueError("latency must be >= 0; rates must be positive")
        self.latency_s = latency_s
        self.mbytes_s = mbytes_s
        self.mflops = mflops

    def compute_time(self, rank: int, workload: Workload) -> float:
        return workload.flops / (self.mflops * 1e6)

    def p2p_time(self, src: int, dst: int, nbytes: int) -> float:
        return self.latency_s + nbytes / (self.mbytes_s * 1e6)


class SpaceSimulatorCost(CostModel):
    """Calibrated cost model of the Space Simulator.

    Point-to-point messages pay the messaging-stack time; messages whose
    endpoints live on different switch modules or different chassis are
    additionally capped by their share of the backplane/trunk capacity
    under the assumption that ``congestion`` other flows share the same
    path (0 = uncontended).  This static treatment captures the fabric
    hierarchy without simulating every packet.

    Because the hierarchy is static, a path's ceiling takes one of three
    values (same module / cross module / cross trunk).  They are computed
    once here, each the ``min`` of the floats a per-message derivation
    would take it of, so every time is the same double; a message then
    costs two reads of ``fabric.port_table``.  A zero-byte message
    between two ranks (the eager injection overhead, a barrier hop) has
    a path term of exactly 0.0 and is the constant ``stack.time_s(0)``.
    """

    def __init__(
        self,
        *,
        node: NodeSpec = SPACE_SIMULATOR_NODE,
        stack: MessagingStack = LAM_O,
        fabric: FabricModel = SPACE_SIMULATOR_FABRIC,
        congestion: int = 0,
    ):
        if congestion < 0:
            raise ValueError("congestion must be non-negative")
        self.node = node
        self.stack = stack
        self.fabric = fabric
        self.congestion = congestion
        self._perf = PerfModel(node)
        port = min(fabric.port_mbits, node.nic.effective_mbits_s)
        sharers = 1 + congestion
        backplane = MODULE_RAW_MBITS * fabric.backplane_efficiency / sharers
        #: Path ceilings: same module, cross module, cross trunk (which
        #: crosses two module backplanes *and* the trunk).
        self._ceilings = (port, min(port, backplane),
                          min(port, fabric.trunk_mbits / sharers, backplane))
        self._zero_byte_s = stack.time_s(0)
        self._stack_mbits = stack.asymptotic_mbits_s

    def compute_time(self, rank: int, workload: Workload) -> float:
        return self._perf.time_s(workload)

    def _path_mbits(self, src: int, dst: int) -> float:
        """Bandwidth ceiling of the src->dst path given static sharing."""
        fabric = self.fabric
        a = fabric.port_table[src % fabric.total_ports]
        b = fabric.port_table[dst % fabric.total_ports]
        # 0 same module, 1 same switch, 2 across the trunk
        return self._ceilings[(a != b) + (a[0] != b[0])]

    def p2p_time(self, src: int, dst: int, nbytes: int) -> float:
        if src == dst:
            # local "message": one memory copy
            return nbytes / (self.node.stream_mbytes_s * 1e6)
        if nbytes == 0:
            return self._zero_byte_s
        base = self.stack.time_s(nbytes)
        wire = min(self._stack_mbits, self._path_mbits(src, dst))
        extra = nbytes * 8.0 / (wire * 1e6) - nbytes * 8.0 / (self._stack_mbits * 1e6)
        return base + max(extra, 0.0)
