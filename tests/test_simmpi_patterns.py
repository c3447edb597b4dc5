"""Tests for repro.simmpi.patterns: p2p-composed collectives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simmpi import UniformCost, patterns, run


class TestSendrecv:
    """The simultaneous send+receive of a ring step: ``isend``, then
    ``recv``, then ``wait`` (what MPI's ``Sendrecv`` does)."""

    @staticmethod
    def _shift(comm, payload, shift):
        req = yield comm.isend(payload, (comm.rank + shift) % comm.size)
        data = yield comm.recv((comm.rank - shift) % comm.size)
        yield comm.wait(req)
        return data

    def test_full_ring_no_deadlock(self):
        def prog(comm):
            data = yield from self._shift(comm, comm.rank, 1)
            return data

        result = run(prog, 6)
        assert result.returns == [5, 0, 1, 2, 3, 4]

    def test_ring_shift_by_k(self):
        def prog(comm):
            data = yield from self._shift(comm, comm.rank * 10, 2)
            return data

        result = run(prog, 5)
        assert result.returns == [30, 40, 0, 10, 20]

    def test_single_rank_shift_identity(self):
        def prog(comm):
            data = yield from self._shift(comm, "x", 1)
            return data

        assert run(prog, 1).returns == ["x"]


class TestBinomialBcast:
    def test_everyone_gets_roots_payload(self):
        def prog(comm):
            data = yield from patterns.tree_bcast(comm, {"v": 7} if comm.rank == 2 else None, root=2)
            return data

        result = run(prog, 6)
        assert all(r == {"v": 7} for r in result.returns)

    def test_log_rounds_beat_sequential_sends(self):
        # Binomial bcast latency ~ log2(P); a naive root-sends-to-all
        # chain is ~P. Compare virtual times at P=16.
        def prog_binomial(comm):
            yield from patterns.tree_bcast(comm, b"x" * 100, root=0)

        def prog_naive(comm):
            if comm.rank == 0:
                for d in range(1, comm.size):
                    yield comm.send(b"x" * 100, dest=d, tag=9)
            else:
                yield comm.recv(source=0, tag=9)

        cost = UniformCost(latency_s=1e-3, mbytes_s=1000.0)
        t_b = run(prog_binomial, 16, cost).elapsed
        t_n = run(prog_naive, 16, cost).elapsed
        assert t_b < t_n

    def test_non_power_of_two(self):
        def prog(comm):
            data = yield from patterns.tree_bcast(comm, comm.rank if comm.rank == 0 else None)
            return data

        assert run(prog, 11).returns == [0] * 11


class TestBatchedRequestReply:
    def test_round_trip_serves_every_peer(self):
        def prog(comm):
            reqs = [[comm.rank * 100 + p] for p in range(comm.size)]
            replies, _ = yield from patterns.batched_request_reply(
                comm, reqs, lambda peer, batch: [x * 2 for x in batch]
            )
            return replies

        result = run(prog, 4)
        for rank, replies in enumerate(result.returns):
            assert replies[rank] is None
            for p in range(4):
                if p != rank:
                    # Peer p doubled the single-item batch we sent it.
                    assert replies[p] == [(rank * 100 + p) * 2]

    def test_empty_batches_allowed(self):
        def prog(comm):
            reqs = [[] for _ in range(comm.size)]
            replies, _ = yield from patterns.batched_request_reply(
                comm, reqs, lambda peer, batch: batch
            )
            return [r for r in replies if r]

        assert run(prog, 3).returns == [[], [], []]

    def test_overlap_result_and_compute_charge(self):
        def prog(comm):
            def overlap():
                yield comm.compute(flops=1e6, label="overlap-work")
                return "did-work"

            reqs = [[1] for _ in range(comm.size)]
            _, got = yield from patterns.batched_request_reply(
                comm, reqs, lambda peer, batch: batch, overlap=overlap()
            )
            return got

        result = run(prog, 3)
        assert result.returns == ["did-work"] * 3

    def test_successive_rounds_keep_matching(self):
        # FIFO per (source, tag) must disambiguate rounds: run three
        # rounds back to back and check each round's payloads.
        def prog(comm):
            seen = []
            for rnd in range(3):
                reqs = [[(rnd, comm.rank)] for _ in range(comm.size)]
                replies, _ = yield from patterns.batched_request_reply(
                    comm, reqs, lambda peer, batch: batch
                )
                seen.append(replies)
            return seen

        result = run(prog, 4)
        for rank, rounds in enumerate(result.returns):
            for rnd, replies in enumerate(rounds):
                for p in range(4):
                    if p != rank:
                        assert replies[p] == [(rnd, rank)]

    def test_overlap_hides_wire_time(self):
        # With overlap compute roughly matching the wire time, the
        # batched pattern should complete in less virtual time than
        # sending the same bytes through blocking alltoalls.
        payload = np.zeros(4096)

        def prog_async(comm):
            def overlap():
                yield comm.compute(flops=5e7, label="useful")

            reqs = [payload for _ in range(comm.size)]
            yield from patterns.batched_request_reply(
                comm, list(reqs), lambda peer, batch: payload, overlap=overlap()
            )

        def prog_blocking(comm):
            yield comm.alltoall([payload for _ in range(comm.size)])
            yield comm.alltoall([payload for _ in range(comm.size)])
            yield comm.compute(flops=5e7, label="useful")

        cost = UniformCost(latency_s=1e-4, mbytes_s=100.0)
        t_async = run(prog_async, 6, cost).elapsed
        t_blocking = run(prog_blocking, 6, cost).elapsed
        assert t_async < t_blocking

    def test_requires_one_batch_per_peer(self):
        def prog(comm):
            try:
                yield from patterns.batched_request_reply(
                    comm, [[]], lambda peer, batch: batch
                )
            except ValueError:
                yield comm.barrier()
                return "caught"

        assert run(prog, 3).returns == ["caught"] * 3


class TestTreeCollectives:
    """The O(log P) collectives must be drop-in equal to the flat
    engine primitives — bit-for-bit, at any group size."""

    @given(st.integers(1, 24), st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_allreduce_bitwise_equal_to_flat(self, size, seed):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** int(rng.integers(-3, 4))
        vals = [float(v) * scale for v in rng.standard_normal(size)]

        def prog(comm):
            flat = yield comm.allreduce(vals[comm.rank])
            tree = yield from patterns.tree_allreduce(comm, vals[comm.rank])
            # repr equality pins the exact float bits, not just ==.
            return repr(flat) == repr(tree)

        assert all(run(prog, size).returns)

    @given(st.integers(1, 24), st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_reduce_and_bcast_match_flat(self, size, seed):
        rng = np.random.default_rng(seed)
        root = int(rng.integers(0, size))
        vals = [float(v) for v in rng.standard_normal(size)]

        def prog(comm):
            f_red = yield comm.reduce(vals[comm.rank], root=root)
            t_red = yield from patterns.tree_reduce(comm, vals[comm.rank], root=root)
            f_bc = yield comm.bcast(vals[0] if comm.rank == root else None, root=root)
            t_bc = yield from patterns.tree_bcast(
                comm, vals[0] if comm.rank == root else None, root=root
            )
            return repr(f_red) == repr(t_red) and repr(f_bc) == repr(t_bc)

        assert all(run(prog, size).returns)

    @given(st.integers(1, 20), st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_allgather_ragged_payloads(self, size, seed):
        # Per-rank payloads of *different* shapes and types — the tree
        # forwards them opaquely, exactly like the flat primitive.
        rng = np.random.default_rng(seed)
        payloads = [
            list(range(int(rng.integers(0, 6)))) if r % 3 else {"rank": r}
            for r in range(size)
        ]

        def prog(comm):
            flat = yield comm.allgather(payloads[comm.rank])
            tree = yield from patterns.tree_allgather(comm, payloads[comm.rank])
            return flat == tree

        assert all(run(prog, size).returns)

    @given(st.integers(1, 20), st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_gather_scatter_roundtrip(self, size, seed):
        rng = np.random.default_rng(seed)
        root = int(rng.integers(0, size))

        def prog(comm):
            gathered = yield from patterns.tree_gather(comm, comm.rank * 11, root=root)
            if comm.rank == root:
                assert gathered == [r * 11 for r in range(size)]
                items = [g + 1 for g in gathered]
            else:
                items = None
            mine = yield comm.scatter(items, root=root)
            return mine == comm.rank * 11 + 1

        assert all(run(prog, size).returns)

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 13, 16, 31, 33])
    def test_barrier_all_sizes(self, size):
        # A tree collective leaves the ranks at different virtual times
        # (log-depth rounds); the engine barrier, the one barrier at
        # every size, releases all of them together, after the last.
        def prog(comm):
            yield from patterns.tree_allreduce(comm, comm.rank)
            before = yield comm.now()
            yield comm.barrier()
            after = yield comm.now()
            return before, after

        returns = run(prog, size, UniformCost()).returns
        released = {after for _, after in returns}
        assert len(released) == 1
        assert released.pop() >= max(before for before, _ in returns)


class TestAutoWrappers:
    def test_selection_by_group_size(self):
        # Below the threshold the wrapper must use the engine primitive
        # (exactly one collective call in the stats per rank); above it
        # the tree algorithm (gather + bcast p2p messages, more total
        # sends than ranks).
        def prog(comm):
            total = yield from patterns.allreduce(comm, 1)
            return total

        small = run(prog, 4)
        assert small.returns == [4] * 4
        assert all(s.msgs_sent == 1 for s in small.stats)

        big_size = patterns.FLAT_COLLECTIVE_MAX + 1
        big = run(prog, big_size)
        assert big.returns == [big_size] * big_size
        assert sum(s.msgs_sent for s in big.stats) > big_size

    def test_explicit_algorithm_override(self):
        # A fixed algorithm is a named function, not an option.
        def prog(comm):
            flat = yield comm.allreduce(comm.rank)
            tree = yield from patterns.tree_allreduce(comm, comm.rank)
            return flat == tree == comm.size * (comm.size - 1) // 2

        assert all(run(prog, 6).returns)

    def test_unknown_algorithm_rejected(self):
        # The wrappers select by group size alone: the option is gone.
        def prog(comm):
            yield from patterns.allreduce(comm, 1, algorithm="ring")

        with pytest.raises(TypeError, match="algorithm"):
            run(prog, 2)

    def test_wrapper_mismatch_detected_in_flat_regime(self):
        from repro.simmpi import CollectiveMismatchError

        def prog(comm):
            if comm.rank == 0:
                yield from patterns.allreduce(comm, 1)
            else:
                yield comm.barrier()

        with pytest.raises(CollectiveMismatchError):
            run(prog, 4)


class TestSparseBatchedRequestReply:
    @staticmethod
    def _ring_prog(sparse):
        def prog(comm):
            reqs = [[] for _ in range(comm.size)]
            reqs[(comm.rank + 1) % comm.size] = [comm.rank]
            replies, _ = yield from patterns.batched_request_reply(
                comm, reqs, lambda peer, batch: [x * 10 for x in batch],
                sparse=sparse,
            )
            return replies

        return prog

    def test_sparse_replies_match_dense_for_active_pairs(self):
        size = 6
        dense = run(self._ring_prog(False), size).returns
        sparse = run(self._ring_prog(True), size).returns
        for rank, (d, s) in enumerate(zip(dense, sparse)):
            target = (rank + 1) % size
            assert s[target] == d[target] == [rank * 10]
            # Inactive pairs: dense serves the empty batch, sparse
            # never sends one.
            for p in range(size):
                if p not in (rank, target):
                    assert d[p] == [] and s[p] is None

    def test_sparse_sends_fewer_messages(self):
        size = 8
        dense = run(self._ring_prog(False), size)
        sparse = run(self._ring_prog(True), size)
        assert sum(s.msgs_sent for s in sparse.stats) < sum(
            s.msgs_sent for s in dense.stats
        )

    def test_auto_gate_follows_group_size(self):
        # At FLAT_COLLECTIVE_MAX ranks the default is the dense round
        # (empty batches travel); one rank more switches to sparse.
        def prog(comm):
            reqs = [[] for _ in range(comm.size)]
            replies, _ = yield from patterns.batched_request_reply(
                comm, reqs, lambda peer, batch: list(batch)
            )
            return replies

        # Dense: every rank sends a request and a reply to each peer.
        at_gate = run(prog, patterns.FLAT_COLLECTIVE_MAX)
        assert all(s.msgs_sent == 2 * (patterns.FLAT_COLLECTIVE_MAX - 1)
                   for s in at_gate.stats)
        # Sparse with nothing to send: just the flags alltoall.
        above = run(prog, patterns.FLAT_COLLECTIVE_MAX + 1)
        assert all(s.msgs_sent == 1 for s in above.stats)
