"""Tests for repro.simmpi.cost: the virtual-time cost models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import Workload
from repro.network import FIGURE2_STACKS, LAM_O, MPICH_125
from repro.simmpi import SpaceSimulatorCost, UniformCost, ZeroCost, patterns, run


class TestZeroCost:
    def test_everything_free(self):
        cost = ZeroCost()
        assert cost.compute_time(0, Workload(1e12)) == 0.0
        assert cost.p2p_time(0, 1, 10**9) == 0.0
        assert cost.collective_time("allreduce", 64, 10**6) == 0.0

    def test_simulation_finishes_at_time_zero(self):
        def prog(comm):
            yield comm.compute(flops=1e15)
            yield comm.allreduce(1)

        assert run(prog, 4).elapsed == 0.0


class TestUniformCost:
    def test_compute_rate(self):
        cost = UniformCost(mflops=250.0)
        assert cost.compute_time(0, Workload(1e9)) == pytest.approx(4.0)

    def test_p2p_latency_bandwidth(self):
        cost = UniformCost(latency_s=1e-4, mbytes_s=50.0)
        assert cost.p2p_time(0, 1, 0) == pytest.approx(1e-4)
        assert cost.p2p_time(0, 1, 5_000_000) == pytest.approx(0.1001)

    def test_collective_scaling(self):
        cost = UniformCost(latency_s=1e-4, mbytes_s=50.0)
        # Tree collectives scale ~log2(P) in latency.
        t8 = cost.collective_time("bcast", 8, 0)
        t64 = cost.collective_time("bcast", 64, 0)
        assert t64 == pytest.approx(2.0 * t8)
        # Single rank: free.
        assert cost.collective_time("barrier", 1, 0) == 0.0

    def test_unknown_collective(self):
        with pytest.raises(ValueError):
            UniformCost().collective_time("allfoo", 4, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformCost(mbytes_s=0.0)
        with pytest.raises(ValueError):
            UniformCost(latency_s=-1.0)


class TestSpaceSimulatorCost:
    def test_compute_uses_node_roofline(self):
        cost = SpaceSimulatorCost()
        # 5.06e9 flops at peak = 1 s on the P4 node.
        assert cost.compute_time(0, Workload(5.06e9)) == pytest.approx(1.0, rel=1e-3)

    def test_small_message_is_stack_latency(self):
        cost = SpaceSimulatorCost()
        assert cost.p2p_time(0, 1, 0) == pytest.approx(83e-6, rel=0.01)

    def test_locality_hierarchy(self):
        # Same module < cross module (uncontended same) < cross trunk
        # under congestion.
        big = 4 * 1024 * 1024
        free = SpaceSimulatorCost(congestion=0)
        busy = SpaceSimulatorCost(congestion=15)
        same_module = free.p2p_time(0, 1, big)
        cross_module = free.p2p_time(0, 20, big)
        cross_trunk_busy = busy.p2p_time(0, 250, big)
        cross_module_busy = busy.p2p_time(0, 20, big)
        assert same_module <= cross_module + 1e-12
        assert cross_module_busy > cross_module
        # A cross-trunk path traverses backplanes AND the trunk: under
        # contention it can never beat the intra-switch path.
        assert cross_trunk_busy >= cross_module_busy

    def test_self_message_is_memory_copy(self):
        cost = SpaceSimulatorCost()
        t = cost.p2p_time(3, 3, 1_204_000_000)
        assert t == pytest.approx(1.0, rel=0.01)  # one second at STREAM rate

    def test_stack_choice_matters(self):
        big = 8 * 1024 * 1024
        lam = SpaceSimulatorCost(stack=LAM_O).p2p_time(0, 1, big)
        mpich = SpaceSimulatorCost(stack=MPICH_125).p2p_time(0, 1, big)
        assert mpich > 1.2 * lam

    def test_validation(self):
        with pytest.raises(ValueError):
            SpaceSimulatorCost(congestion=-1)


class TestEagerThreshold:
    def test_cost_model_can_force_rendezvous(self):
        # A cost model advertising eager_nbytes=0 makes every blocking
        # send wait for its receiver.
        class Rendezvous(UniformCost):
            eager_nbytes = 0

        def prog(comm):
            if comm.rank == 0:
                yield comm.send(b"tiny", dest=1)
                t = yield comm.now()
                return t
            yield comm.elapse(3.0)
            yield comm.recv(source=0)
            return None

        t_sender = run(prog, 2, Rendezvous()).returns[0]
        assert t_sender >= 3.0
        # Default engine threshold: the same tiny send is eager.
        t_eager = run(prog, 2, UniformCost()).returns[0]
        assert t_eager < 1.0


def _locate_based_p2p_time(cost, src, dst, nbytes):
    """``SpaceSimulatorCost.p2p_time`` as it was before the ceilings and
    the port table were precomputed, written out: two ``locate`` walks
    and the ``min`` chain for every message, zero-byte ones included."""
    node, stack, fabric = cost.node, cost.stack, cost.fabric
    if src == dst:
        return nbytes / (node.stream_mbytes_s * 1e6)
    base = stack.time_s(nbytes)
    a = fabric.locate(src % fabric.total_ports)
    b = fabric.locate(dst % fabric.total_ports)
    ceiling = min(fabric.port_mbits, node.nic.effective_mbits_s)
    sharers = 1 + cost.congestion
    backplane = 8000.0 * fabric.backplane_efficiency
    if a.switch != b.switch:
        ceiling = min(ceiling, fabric.trunk_mbits / sharers, backplane / sharers)
    elif a.module != b.module:
        ceiling = min(ceiling, backplane / sharers)
    wire = min(stack.asymptotic_mbits_s, ceiling)
    extra = nbytes * 8.0 / (wire * 1e6) - nbytes * 8.0 / (stack.asymptotic_mbits_s * 1e6)
    return base + max(extra, 0.0)


class TestPrecomputedPath:
    """The path ceiling is precomputed, the answer is the same double."""

    @settings(max_examples=400, deadline=None)
    @given(
        src=st.integers(0, 3000),  # past the 304 ports: ranks wrap around
        dst=st.integers(0, 3000),
        nbytes=st.sampled_from([0, 1, 65_536, 65_537, 128 * 1024 - 1, 128 * 1024,
                                128 * 1024 + 1, 10**9]),
        congestion=st.integers(0, 8),
        stack=st.sampled_from(FIGURE2_STACKS),
    )
    def test_p2p_time_is_the_locate_based_double(self, src, dst, nbytes, congestion, stack):
        cost = SpaceSimulatorCost(stack=stack, congestion=congestion)
        got = cost.p2p_time(src, dst, nbytes)
        assert got.hex() == _locate_based_p2p_time(cost, src, dst, nbytes).hex()

    class Counting(SpaceSimulatorCost):
        """Counts path lookups."""

        lookups = 0

        def _path_mbits(self, src, dst):
            self.lookups += 1
            return super()._path_mbits(src, dst)

    def test_one_path_lookup_per_matched_message(self):
        """The shape of perfbench's ``_patterns_program``: a tree
        allgather, then a sparse request round to four ring neighbours."""

        def program(comm):
            ranks = yield from patterns.allgather(comm, comm.rank)
            requests = [None] * comm.size
            for hop in (1, 2, 3, 4):
                requests[(comm.rank + hop) % comm.size] = [comm.rank, hop]
            yield from patterns.batched_request_reply(
                comm, requests, lambda peer, batch: batch, sparse=True)
            return len(ranks)

        cost = self.Counting()
        sim = run(program, 64, cost, record_trace=False)
        assert sim.returns == [64] * 64
        matched = sum(s.msgs_received for s in sim.stats)
        # Not one more for the zero-byte injection overhead of each
        # eager send; the round's one flat alltoall of flags costs a path.
        assert matched >= 2 * 4 * 64 and cost.lookups == matched + 1

    def test_no_path_lookup_for_a_self_send(self):
        def program(comm):
            req = yield comm.isend(b"x" * 100, dest=comm.rank)
            got = yield comm.recv(source=comm.rank)
            yield comm.wait(req)
            return got

        cost = self.Counting()
        sim = run(program, 3, cost, record_trace=False)
        assert sim.returns == [b"x" * 100] * 3 and sim.elapsed > 0
        assert cost.lookups == 0


class TestNegativeWireSize:
    """A negative ``nbytes=`` override is refused where the descriptor is
    built, in the rank that made the call, under any cost model."""

    @pytest.mark.parametrize("cost", [UniformCost, SpaceSimulatorCost])
    @pytest.mark.parametrize("call", [
        lambda comm: comm.send(b"abc", 1 - comm.rank, nbytes=-10**9),
        lambda comm: comm.isend(b"abc", 1 - comm.rank, nbytes=-1),
        lambda comm: comm.allgather(b"abc", nbytes=-1),
        lambda comm: comm.alltoall([b"a", b"b"], nbytes=-1),
    ], ids=["send", "isend", "allgather", "alltoall"])
    def test_refused_at_descriptor_construction(self, call, cost):
        def prog(comm):
            yield call(comm)

        with pytest.raises(ValueError, match="nbytes must be non-negative, got -1"):
            run(prog, 2, cost())

    def test_zero_is_a_valid_override(self):
        def prog(comm):
            if comm.rank == 0:
                yield comm.send(b"abc", 1, nbytes=0)
            else:
                yield comm.recv(source=0)

        assert run(prog, 2, SpaceSimulatorCost()).total_bytes_sent == 0
