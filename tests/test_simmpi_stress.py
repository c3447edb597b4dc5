"""Property-based stress tests for the SimMPI engine.

Hypothesis generates random-but-matched communication structures; the
engine must route every payload correctly, never deadlock, and keep
virtual time consistent — across payload sizes straddling the eager
threshold, wildcard receives, and mixed blocking/nonblocking traffic.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simmpi import ANY_SOURCE, UniformCost, run

# Monte-Carlo stress tier: excluded from `pytest -m "not slow"` runs.
pytestmark = pytest.mark.slow


class TestRandomMatchedTraffic:
    @given(
        st.integers(2, 6),
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=20),
        st.integers(0, 10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_send_matrix_delivered(self, size, raw_edges, seed):
        """Any multiset of (src, dst) messages with matching receives
        completes, and every payload reaches its addressee."""
        edges = [(s % size, d % size) for s, d in raw_edges]
        outgoing = {r: [d for s, d in edges if s == r] for r in range(size)}
        incoming_count = {r: sum(1 for _, d in edges if d == r) for r in range(size)}

        def prog(comm):
            me = comm.rank
            reqs = []
            for i, dest in enumerate(outgoing[me]):
                reqs.append((yield comm.isend((me, i), dest=dest, tag=7)))
            got = []
            for _ in range(incoming_count[me]):
                got.append((yield comm.recv(source=ANY_SOURCE, tag=7)))
            if reqs:
                yield comm.waitall(reqs)
            yield comm.barrier()
            return sorted(got)

        result = run(prog, size)
        delivered = [m for r in result.returns for m in r]
        expected = sorted(
            (s, i)
            for r in range(size)
            for i, (s2, _) in enumerate([(r, d) for d in outgoing[r]])
            for s in [r]
        )
        assert sorted(delivered) == expected

    @given(st.integers(2, 5), st.integers(0, 3), st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_eager_boundary_sizes(self, size, exponent, seed):
        """Payloads straddling the 64 KiB eager threshold all route."""
        nbytes = 64 * 1024 + (exponent - 1) * 1024  # 63, 64, 65, 66 KiB
        payload = np.zeros(nbytes // 8)

        def prog(comm):
            right = (comm.rank + 1) % comm.size
            req = yield comm.isend(payload, dest=right, tag=1)
            data = yield comm.recv(source=(comm.rank - 1) % comm.size, tag=1)
            yield comm.wait(req)
            return data.size

        result = run(prog, size, UniformCost())
        assert result.returns == [payload.size] * size

    @given(st.permutations(list(range(5))), st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_permutation_routing(self, targets, salt):
        """Every rank sends to a permutation target; all arrive."""
        size = len(targets)

        def prog(comm):
            yield comm.isend(comm.rank * 1000 + salt, dest=targets[comm.rank], tag=3)
            data = yield comm.recv(tag=3)
            return data

        result = run(prog, size)
        for dest, got in enumerate(result.returns):
            src = targets.index(dest)
            assert got == src * 1000 + salt

    @given(st.integers(2, 6), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_collective_storm(self, size, rounds):
        """Repeated mixed collectives stay matched and correct."""

        def prog(comm):
            acc = 0
            for r in range(rounds):
                acc += yield comm.allreduce(comm.rank + r)
                blocks = yield comm.allgather(comm.rank)
                assert blocks == tuple(range(comm.size))
                yield comm.barrier()
            return acc

        expected_per_round = lambda r: sum(range(size)) + size * r
        expected = sum(expected_per_round(r) for r in range(rounds))
        assert run(prog, size).returns == [expected] * size

    @given(st.integers(2, 5), st.floats(1e-6, 1e-2), st.floats(1.0, 1000.0))
    @settings(max_examples=20, deadline=None)
    def test_clocks_nonnegative_and_bounded(self, size, latency, mbytes):
        """Virtual clocks are monotone, finite, and ordering-consistent
        under arbitrary cost parameters."""
        cost = UniformCost(latency_s=latency, mbytes_s=mbytes)

        def prog(comm):
            yield comm.compute(flops=1e6)
            total = yield comm.allreduce(1)
            return total

        result = run(prog, size, cost)
        assert all(np.isfinite(c) and c >= 0 for c in result.clocks)
        assert result.returns == [size] * size
        assert result.elapsed >= max(s.compute_s for s in result.stats) - 1e-12
