"""Tests for repro.simmpi: MPI semantics and virtual-time accounting."""

import numpy as np
import pytest

from repro.simmpi import (
    ANY_SOURCE,
    ANY_TAG,
    MAX,
    Comm,
    DeadlockError,
    CollectiveMismatchError,
    UniformCost,
    ZeroCost,
    payload_nbytes,
    run,
)
from repro.simmpi.api import (
    CollectiveOp, Compute, Elapse, Irecv, Isend, Now, Recv, Send, Wait, Waitall,
)
from repro.simmpi.engine import Engine


class TestPointToPoint:
    def test_simple_send_recv(self):
        def prog(comm):
            if comm.rank == 0:
                yield comm.send({"a": 7}, dest=1, tag=11)
                return None
            data = yield comm.recv(source=0, tag=11)
            return data

        result = run(prog, 2)
        assert result.returns[1] == {"a": 7}

    def test_numpy_payload(self):
        def prog(comm):
            if comm.rank == 0:
                yield comm.send(np.arange(5.0), dest=1)
                return None
            data = yield comm.recv(source=0)
            return float(data.sum())

        assert run(prog, 2).returns[1] == 10.0

    def test_ring_exchange(self):
        def prog(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            yield comm.isend(comm.rank, dest=right, tag=5)
            value = yield comm.recv(source=left, tag=5)
            return value

        result = run(prog, 6)
        assert result.returns == [5, 0, 1, 2, 3, 4]

    def test_message_order_preserved_same_pair(self):
        def prog(comm):
            if comm.rank == 0:
                for i in range(5):
                    yield comm.send(i, dest=1, tag=0)
                return None
            got = []
            for _ in range(5):
                got.append((yield comm.recv(source=0, tag=0)))
            return got

        assert run(prog, 2).returns[1] == [0, 1, 2, 3, 4]

    def test_tag_selectivity(self):
        def prog(comm):
            if comm.rank == 0:
                yield comm.send("first", dest=1, tag=1)
                yield comm.send("second", dest=1, tag=2)
                return None
            b = yield comm.recv(source=0, tag=2)
            a = yield comm.recv(source=0, tag=1)
            return (a, b)

        assert run(prog, 2).returns[1] == ("first", "second")

    def test_any_source_wildcard(self):
        def prog(comm):
            if comm.rank == 0:
                got = []
                for _ in range(comm.size - 1):
                    got.append((yield comm.recv(source=ANY_SOURCE)))
                return sorted(got)
            yield comm.send(comm.rank, dest=0)
            return None

        assert run(prog, 4).returns[0] == [1, 2, 3]

    def test_nonblocking_wait(self):
        def prog(comm):
            if comm.rank == 0:
                req = yield comm.isend(np.ones(3), dest=1)
                yield comm.wait(req)
                return None
            req = yield comm.irecv(source=0)
            data = yield comm.wait(req)
            return float(data.sum())

        assert run(prog, 2).returns[1] == 3.0

    def test_waitall_returns_in_request_order(self):
        def prog(comm):
            if comm.rank == 0:
                yield comm.send("x", dest=1, tag=1)
                yield comm.send("y", dest=1, tag=2)
                return None
            r2 = yield comm.irecv(source=0, tag=2)
            r1 = yield comm.irecv(source=0, tag=1)
            values = yield comm.waitall([r1, r2])
            return values

        assert run(prog, 2).returns[1] == ["x", "y"]

    def test_invalid_peer_rejected(self):
        comm = Comm(rank=0, size=2)
        with pytest.raises(ValueError):
            comm.send(1, dest=2)
        with pytest.raises(ValueError):
            comm.recv(source=5)

    def test_negative_send_tag_rejected(self):
        # ANY_TAG (-1) is a receive wildcard; no message carries it.
        comm = Comm(rank=0, size=2)
        for send in (comm.send, comm.isend):
            with pytest.raises(ValueError, match="send tag"):
                send(1, dest=1, tag=ANY_TAG)
            with pytest.raises(ValueError, match="send tag"):
                send(1, dest=1, tag=-5)
        assert comm.recv(source=1, tag=ANY_TAG).tag == ANY_TAG


class TestCollectives:
    def test_barrier_synchronizes_clocks(self):
        def prog(comm):
            yield comm.elapse(float(comm.rank))
            yield comm.barrier()
            t = yield comm.now()
            return t

        result = run(prog, 4)
        # Everyone leaves the barrier at the latest arrival time.
        assert all(t == pytest.approx(3.0) for t in result.returns)

    def test_bcast(self):
        def prog(comm):
            data = yield comm.bcast({"k": [1, 2]} if comm.rank == 1 else None, root=1)
            return data

        result = run(prog, 3)
        assert all(r == {"k": [1, 2]} for r in result.returns)

    def test_reduce_sum_to_root(self):
        def prog(comm):
            total = yield comm.reduce(comm.rank + 1, root=0)
            return total

        result = run(prog, 4)
        assert result.returns[0] == 10
        assert result.returns[1] is None

    def test_allreduce_max(self):
        def prog(comm):
            value = yield comm.allreduce(comm.rank * 2, op=MAX)
            return value

        assert run(prog, 5).returns == [8] * 5

    def test_allreduce_numpy_elementwise(self):
        def prog(comm):
            arr = np.full(3, float(comm.rank))
            out = yield comm.allreduce(arr)
            return out.tolist()

        assert run(prog, 3).returns[0] == [3.0, 3.0, 3.0]

    def test_gather(self):
        def prog(comm):
            data = yield comm.gather(comm.rank**2, root=2)
            return data

        result = run(prog, 3)
        assert result.returns[2] == [0, 1, 4]
        assert result.returns[0] is None

    def test_allgather(self):
        def prog(comm):
            data = yield comm.allgather(chr(ord("a") + comm.rank))
            return "".join(data)

        assert run(prog, 4).returns == ["abcd"] * 4

    def test_scatter(self):
        def prog(comm):
            items = [i * 10 for i in range(comm.size)] if comm.rank == 0 else None
            mine = yield comm.scatter(items, root=0)
            return mine

        assert run(prog, 4).returns == [0, 10, 20, 30]

    def test_scatter_requires_full_list_at_root(self):
        comm = Comm(rank=0, size=3)
        with pytest.raises(ValueError):
            comm.scatter([1, 2], root=0)

    def test_alltoall(self):
        def prog(comm):
            out = [(comm.rank, dst) for dst in range(comm.size)]
            got = yield comm.alltoall(out)
            return got

        result = run(prog, 3)
        assert result.returns[1] == [(0, 1), (1, 1), (2, 1)]

    def test_collective_kind_mismatch_detected(self):
        def prog(comm):
            if comm.rank == 0:
                yield comm.barrier()
            else:
                yield comm.allreduce(1)

        with pytest.raises(CollectiveMismatchError):
            run(prog, 2)


class TestErrors:
    def test_deadlock_detected(self):
        def prog(comm):
            # Everyone receives, nobody sends.
            yield comm.recv(source=(comm.rank + 1) % comm.size)

        with pytest.raises(DeadlockError, match="rank 0"):
            run(prog, 2)

    def test_non_generator_program_rejected(self):
        def not_a_generator(comm):
            return 42

        with pytest.raises(TypeError, match="generator"):
            run(not_a_generator, 2)

    def test_yield_garbage_raises_into_program(self):
        def prog(comm):
            with pytest.raises(TypeError):
                yield "not an op"
            return "survived"

        assert run(prog, 1).returns == ["survived"]

    def test_spmd_requires_ranks(self):
        def prog(comm):
            yield comm.barrier()

        with pytest.raises(ValueError):
            run(prog)

    @pytest.mark.parametrize("n_ranks", [True, False, 2.0, "2", 0, -3])
    def test_bad_n_ranks_refused_by_name(self, n_ranks):
        def prog(comm):
            yield comm.barrier()

        with pytest.raises(ValueError, match="n_ranks"):
            run(prog, n_ranks)
        with pytest.raises(ValueError, match="n_ranks"):
            run([prog, prog], n_ranks)

    @pytest.mark.parametrize("max_events", [0, -5, True, 2.5, "10"])
    def test_bad_max_events_refused_by_name(self, max_events):
        def prog(comm):
            yield comm.barrier()

        with pytest.raises(ValueError, match="max_events"):
            run(prog, 2, max_events=max_events)
        with pytest.raises(ValueError, match="max_events"):
            Engine([prog]).run(max_events)

    @pytest.mark.parametrize("charge", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_compute_refused(self, charge):
        for kwargs in ({"flops": charge}, {"flops": 1.0, "mem_bytes": charge}):
            def prog(comm):
                yield comm.compute(**kwargs)

            with pytest.raises(ValueError, match="finite"):
                run(prog, 1, UniformCost())

    @pytest.mark.parametrize("seconds", [float("nan"), float("inf"), -float("inf"), -1.0])
    def test_non_finite_elapse_refused(self, seconds):
        def prog(comm):
            yield comm.elapse(seconds)

        with pytest.raises(ValueError, match="finite and non-negative"):
            run(prog, 1)


class TestVirtualTime:
    def test_compute_advances_clock(self):
        cost = UniformCost(mflops=1000.0)

        def prog(comm):
            yield comm.compute(flops=2e9)
            t = yield comm.now()
            return t

        assert run(prog, 1, cost).returns[0] == pytest.approx(2.0)

    def test_message_time_latency_plus_bandwidth(self):
        cost = UniformCost(latency_s=1e-3, mbytes_s=10.0)

        def prog(comm):
            if comm.rank == 0:
                yield comm.send(np.zeros(1_250_000), dest=1)  # 10 MB
                return None
            yield comm.recv(source=0)
            t = yield comm.now()
            return t

        # 1 ms latency + 10 MB / 10 MB/s = 1.001 s at the receiver.
        assert run(prog, 2, cost).returns[1] == pytest.approx(1.001, rel=1e-3)

    def test_eager_send_completes_locally(self):
        cost = UniformCost(latency_s=1e-3, mbytes_s=10.0)

        def prog(comm):
            if comm.rank == 0:
                yield comm.send(b"small", dest=1)
                t = yield comm.now()
                yield comm.barrier()
                return t
            yield comm.elapse(5.0)  # receiver shows up late
            yield comm.recv(source=0)
            yield comm.barrier()
            return None

        # The eager sender must not wait 5 s for the receiver.
        assert run(prog, 2, cost).returns[0] < 1.0

    def test_rendezvous_send_blocks_for_receiver(self):
        cost = UniformCost(latency_s=1e-3, mbytes_s=100.0)

        def prog(comm):
            if comm.rank == 0:
                yield comm.send(np.zeros(200_000), dest=1)  # 1.6 MB > eager
                t = yield comm.now()
                return t
            yield comm.elapse(5.0)
            yield comm.recv(source=0)
            return None

        assert run(prog, 2, cost).returns[0] >= 5.0

    def test_blocked_time_accounted(self):
        cost = UniformCost(latency_s=0.0, mbytes_s=1000.0)

        def prog(comm):
            if comm.rank == 0:
                yield comm.elapse(2.0)
                yield comm.send(b"x", dest=1)
                return None
            yield comm.recv(source=0)

        result = run(prog, 2, cost)
        assert result.stats[1].blocked_s == pytest.approx(2.0, abs=1e-6)

    def test_parallel_efficiency_of_embarrassing_work(self):
        def prog(comm):
            yield comm.compute(flops=1e9)

        result = run(prog, 4, UniformCost())
        assert result.parallel_efficiency() == pytest.approx(1.0)

    def test_determinism(self):
        def prog(comm):
            rng = np.random.default_rng(comm.rank)
            total = 0.0
            sent_to = [0] * comm.size
            for i in range(5):
                partner = int(rng.integers(0, comm.size))
                sent_to[partner] += 1
                yield comm.isend(float(comm.rank + i), dest=partner, tag=i)
            incoming = yield comm.alltoall(sent_to)
            for _ in range(sum(incoming)):
                total += yield comm.recv()
            value = yield comm.allreduce(total)
            return value

        a = run(prog, 8, UniformCost())
        b = run(prog, 8, UniformCost())
        assert a.returns == b.returns
        assert a.clocks == b.clocks


class TestPayloadNbytes:
    def test_numpy(self):
        assert payload_nbytes(np.zeros(10)) == 80

    def test_scalars_and_none(self):
        assert payload_nbytes(None) == 0
        assert payload_nbytes(3) == 8
        assert payload_nbytes(2.5) == 8

    def test_containers(self):
        assert payload_nbytes([np.zeros(2), np.zeros(3)]) == 16 + 24 + 16

    def test_bytes_and_str(self):
        assert payload_nbytes(b"abcd") == 4
        assert payload_nbytes("abcd") == 4

    def test_opaque_object(self):
        class Thing:
            pass

        assert payload_nbytes(Thing()) == 64


#: The counters of a traced run of :func:`_books_program` on five ranks.
COUNTERS = {"simmpi.bytes_sent": 800280.0, "simmpi.msgs_sent": 10.0,
            "simmpi.bytes_received": 800200.0, "simmpi.msgs_received": 10.0,
            "simmpi.collective_calls": 15.0}


def _books_program(comm):
    """Eager and rendezvous messages, a wait, the flat collectives."""
    right, left = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
    small = yield comm.isend(np.arange(comm.rank + 3.0), dest=right, tag=1)
    big = yield comm.isend(np.zeros(20_000), dest=left, tag=2)  # above the eager limit
    got = yield comm.recv(source=left, tag=1)
    yield comm.recv(source=right, tag=2)
    yield comm.waitall([small, big])
    total = yield comm.allreduce(float(got.sum()))
    everyone = yield comm.allgather(comm.rank)
    yield comm.compute(flops=1e6, label="work")
    yield comm.barrier()
    return total, everyone


class TestOperations:
    """Ops are immutable records the engine looks up by exact type, and
    an untraced run keeps the same books as a traced one."""

    OPS = [Send(1, 0, b"x", 1), Recv(0, 0), Isend(1, 0, None, 0), Irecv(0, 0), Wait(None),
           Waitall(()), Compute(1.0, 0.0), Elapse(1.0), Now(), CollectiveOp("barrier")]

    @pytest.mark.parametrize("op", OPS, ids=lambda op: type(op).__name__)
    def test_fields_cannot_be_assigned(self, op):
        for name in (*op._fields[:1], "label"):
            with pytest.raises(AttributeError):
                setattr(op, name, None)

    def test_a_tuple_shaped_like_an_op_is_refused(self):
        def prog(comm):
            with pytest.raises(TypeError, match=r"rank 0 yielded non-operation \(0, 0"):
                yield tuple(comm.isend(b"x", dest=0))
            return "refused"

        assert run(prog, 1).returns == ["refused"]

    def test_allgather_hands_every_rank_one_tuple(self):
        def prog(comm):
            return (yield comm.allgather(comm.rank))

        got = run(prog, 4).returns
        assert got[0] == (0, 1, 2, 3) and all(g is got[0] for g in got)

    def test_untraced_run_keeps_the_same_books(self):
        traced = run(_books_program, 5, UniformCost())
        untraced = run(_books_program, 5, UniformCost(), record_trace=False)
        assert untraced.observer is None
        assert traced.stats == untraced.stats
        assert traced.clocks == untraced.clocks and traced.returns == untraced.returns
        # Only a traced run counts, and it counts every op.
        assert {name: c.value for name, c in traced.observer.counters.items()} == COUNTERS
