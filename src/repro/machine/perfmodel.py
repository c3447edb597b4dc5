"""Roofline-style execution-time model.

Section 3.2 concludes that "the factor limiting node performance for a
large fraction of scientific applications is the local node memory
bandwidth".  The model here encodes exactly that observation: a
computation is characterized by its operation count and its memory
traffic (:class:`Workload`), and a node executes it at whichever of the
two resources is the bottleneck (:class:`PerfModel`).

Two composition rules are offered:

``overlap``
    ``t = max(t_flops, t_mem)`` — the classic roofline, appropriate for
    well-pipelined kernels where prefetching hides memory behind
    arithmetic (STREAM, dense BLAS-3).
``serial``
    ``t = t_flops + t_mem`` — appropriate for latency-exposed codes
    where stalls add to compute (pointer chasing, short loops).

Real codes fall between; ``overlap_fraction`` interpolates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .node import NodeSpec

__all__ = ["Workload", "PerfModel"]


@dataclass(frozen=True)
class Workload:
    """Resource demands of one computation phase.

    Attributes
    ----------
    flops:
        Floating-point (or integer op, for IS-like kernels) count.
    mem_bytes:
        Bytes moved to/from DRAM (not cache traffic).
    flop_efficiency:
        Fraction of node peak the arithmetic can sustain when
        compute-bound (dense kernels ~0.65 with ATLAS; irregular codes
        much lower).
    overlap_fraction:
        1.0 = perfect overlap of memory and arithmetic (roofline max),
        0.0 = fully serialized.
    """

    flops: float
    mem_bytes: float = 0.0
    flop_efficiency: float = 1.0
    overlap_fraction: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.flops < math.inf and 0.0 <= self.mem_bytes < math.inf):
            raise ValueError("flops and mem_bytes must be finite and non-negative, "
                             f"got {self.flops!r}, {self.mem_bytes!r}")
        if not 0.0 < self.flop_efficiency <= 1.0:
            raise ValueError(f"flop_efficiency must be in (0, 1], got {self.flop_efficiency}")
        if not 0.0 <= self.overlap_fraction <= 1.0:
            raise ValueError(f"overlap_fraction must be in [0, 1], got {self.overlap_fraction}")

    @property
    def arithmetic_intensity(self) -> float:
        """Flops per DRAM byte (``inf`` for in-cache workloads)."""
        if self.mem_bytes == 0:
            return float("inf")
        return self.flops / self.mem_bytes

    def scaled(self, factor: float) -> "Workload":
        """A workload ``factor`` times larger (same intensity)."""
        if factor < 0:
            raise ValueError("factor must be non-negative")
        return Workload(
            self.flops * factor,
            self.mem_bytes * factor,
            self.flop_efficiency,
            self.overlap_fraction,
        )


class PerfModel:
    """Executes :class:`Workload` descriptions against a :class:`NodeSpec`."""

    def __init__(self, node: NodeSpec):
        self.node = node

    def flop_time_s(self, workload: Workload) -> float:
        """Time attributable to arithmetic alone."""
        peak = self.node.peak_mflops * 1e6 * workload.flop_efficiency
        return workload.flops / peak

    def mem_time_s(self, workload: Workload) -> float:
        """Time attributable to DRAM traffic alone."""
        if workload.mem_bytes == 0:
            return 0.0
        bw = self.node.stream_mbytes_s * 1e6
        return workload.mem_bytes / bw

    def time_s(self, workload: Workload) -> float:
        """Execution time under the interpolated roofline rule."""
        tf = self.flop_time_s(workload)
        tm = self.mem_time_s(workload)
        overlapped = max(tf, tm)
        serialized = tf + tm
        w = workload.overlap_fraction
        return w * overlapped + (1.0 - w) * serialized

    def mflops(self, workload: Workload) -> float:
        """Achieved Mflop/s on this workload."""
        t = self.time_s(workload)
        if t == 0.0:
            return 0.0
        return workload.flops / t / 1e6

    def ridge_intensity(self) -> float:
        """Arithmetic intensity (flops/byte) at the roofline ridge point.

        Workloads below this intensity are memory-bound on this node.
        The SS node's ridge sits near 4.2 flops/byte, which is why the
        NPB kernels (intensity ~0.5-2) track memory frequency so closely
        in Table 2.
        """
        return (self.node.peak_mflops * 1e6) / (self.node.stream_mbytes_s * 1e6)
