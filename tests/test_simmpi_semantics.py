"""SimMPI conformance suite: the MPI semantics the engine guarantees.

Where ``test_simmpi_engine.py`` exercises the API surface, this file
pins the *standard's* behavioral contracts — the ones the parallel
treecode and the resilience layer silently rely on:

* non-overtaking: messages between one (source, dest) pair with
  matching tags are received in posting order, under randomized
  interleavings (MPI 4.1 §3.5);
* wildcard matching: ``ANY_SOURCE``/``ANY_TAG`` receives match the
  earliest-posted eligible send, and tags are selective;
* protocol split: eager sends complete at the sender without a
  matching receive; rendezvous sends complete only when matched;
* collectives: every rank must call the same collective in the same
  order — kind disagreement raises, in whatever call slot it occurs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simmpi import (
    ANY_SOURCE,
    ANY_TAG,
    CollectiveMismatchError,
    DeadlockError,
    UniformCost,
    run,
)

COST = UniformCost(latency_s=10e-6, mbytes_s=100.0)
EAGER = COST.eager_nbytes


class TestNonOvertaking:
    @given(st.integers(0, 2**31 - 1), st.integers(2, 12))
    @settings(max_examples=25, deadline=None)
    def test_same_pair_same_tag_fifo(self, seed, n_msgs):
        """Messages on one (src, dst, tag) channel arrive in post order,
        whatever mix of eager and rendezvous sizes the sender used."""
        rng = np.random.default_rng(seed)
        # Mix tiny (eager) and huge (rendezvous) payload descriptors.
        sizes = rng.choice([8, EAGER + 1], size=n_msgs).tolist()

        def sender(comm):
            for i, size in enumerate(sizes):
                yield comm.isend(np.full(size // 8, i, dtype=np.int64), dest=1, tag=7)
            yield comm.barrier()

        def receiver(comm):
            seen = []
            for _ in sizes:
                msg = yield comm.recv(source=0, tag=7)
                seen.append(int(msg[0]))
            yield comm.barrier()
            return seen

        result = run([sender, receiver], cost=COST)
        assert result.returns[1] == list(range(n_msgs))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_per_tag_channels_are_independent(self, seed):
        """Interleaved tags never reorder *within* a tag channel."""
        rng = np.random.default_rng(seed)
        schedule = [(int(rng.integers(2)), i) for i in range(10)]

        def sender(comm):
            for tag, i in schedule:
                yield comm.isend((tag, i), dest=1, tag=tag)
            yield comm.barrier()

        def receiver(comm):
            out = {0: [], 1: []}
            for tag in (0, 1):
                want = sum(1 for t, _ in schedule if t == tag)
                for _ in range(want):
                    msg = yield comm.recv(source=0, tag=tag)
                    out[tag].append(msg)
            yield comm.barrier()
            return out

        result = run([sender, receiver], cost=COST)
        for tag in (0, 1):
            expected = [(t, i) for t, i in schedule if t == tag]
            assert result.returns[1][tag] == expected

    def test_wildcard_recv_takes_earliest_posted(self):
        """An ANY_SOURCE/ANY_TAG receive matches the send that was
        posted first in virtual time, not an arbitrary one."""

        def early(comm):
            yield comm.isend("early", dest=2, tag=5)
            yield comm.barrier()

        def late(comm):
            yield comm.elapse(1.0)
            yield comm.isend("late", dest=2, tag=9)
            yield comm.barrier()

        def sink(comm):
            yield comm.elapse(2.0)  # both sends already posted
            first = yield comm.recv(source=ANY_SOURCE, tag=ANY_TAG)
            second = yield comm.recv(source=ANY_SOURCE, tag=ANY_TAG)
            yield comm.barrier()
            return [first, second]

        result = run([early, late, sink], cost=COST)
        assert result.returns[2] == ["early", "late"]


class TestWildcardMatching:
    def test_any_source_fixed_tag_filters_on_tag(self):
        def noise(comm):
            yield comm.isend("noise", dest=2, tag=1)
            yield comm.isend("signal", dest=2, tag=2)
            yield comm.barrier()

        def other(comm):
            yield comm.elapse(0.5)
            yield comm.isend("signal2", dest=2, tag=2)
            yield comm.barrier()

        def sink(comm):
            yield comm.elapse(1.0)
            a = yield comm.recv(source=ANY_SOURCE, tag=2)
            b = yield comm.recv(source=ANY_SOURCE, tag=2)
            c = yield comm.recv(source=0, tag=ANY_TAG)
            yield comm.barrier()
            return [a, b, c]

        result = run([noise, other, sink], cost=COST)
        assert result.returns[2] == ["signal", "signal2", "noise"]

    def test_fixed_source_any_tag_filters_on_source(self):
        def s0(comm):
            yield comm.isend("from0", dest=2, tag=11)
            yield comm.barrier()

        def s1(comm):
            yield comm.isend("from1", dest=2, tag=12)
            yield comm.barrier()

        def sink(comm):
            yield comm.elapse(1.0)
            got = yield comm.recv(source=1, tag=ANY_TAG)
            rest = yield comm.recv(source=ANY_SOURCE, tag=ANY_TAG)
            yield comm.barrier()
            return [got, rest]

        result = run([s0, s1, sink], cost=COST)
        assert result.returns[2] == ["from1", "from0"]


class TestEagerVsRendezvous:
    def test_eager_send_returns_before_any_recv(self):
        """A small blocking send completes even though the receive is
        posted much later: the eager buffer decouples them."""

        def sender(comm):
            yield comm.send(b"x" * 64, dest=1)
            t_after = yield comm.now()
            yield comm.barrier()
            return t_after

        def receiver(comm):
            yield comm.elapse(5.0)
            yield comm.recv(source=0)
            yield comm.barrier()

        result = run([sender, receiver], cost=COST)
        assert result.returns[0] < 1.0  # returned long before t=5

    def test_rendezvous_send_waits_for_the_receiver(self):
        def sender(comm):
            yield comm.send(np.zeros(EAGER, dtype=np.uint8), dest=1)
            t_after = yield comm.now()
            yield comm.barrier()
            return t_after

        def receiver(comm):
            yield comm.elapse(5.0)
            yield comm.recv(source=0)
            yield comm.barrier()

        # One byte over the threshold forces the rendezvous path.
        def big_sender(comm):
            yield comm.send(np.zeros(EAGER + 1, dtype=np.uint8), dest=1)
            t_after = yield comm.now()
            yield comm.barrier()
            return t_after

        eager_t = run([sender, receiver], cost=COST).returns[0]
        rendezvous_t = run([big_sender, receiver], cost=COST).returns[0]
        assert eager_t < 5.0 <= rendezvous_t

    @given(st.integers(-3, 3))
    @settings(max_examples=7, deadline=None)
    def test_protocol_boundary_is_exact(self, delta):
        """Sends at most the threshold are eager; above, rendezvous."""
        nbytes = EAGER + delta

        def sender(comm):
            yield comm.send(np.zeros(nbytes, dtype=np.uint8), dest=1)
            t = yield comm.now()
            yield comm.barrier()
            return t

        def receiver(comm):
            yield comm.elapse(2.0)
            yield comm.recv(source=0)
            yield comm.barrier()

        t_send_done = run([sender, receiver], cost=COST).returns[0]
        if nbytes <= EAGER:
            assert t_send_done < 2.0
        else:
            assert t_send_done >= 2.0

    def test_eager_message_content_still_delivered(self):
        def sender(comm):
            yield comm.send(np.arange(4), dest=1, tag=3)
            yield comm.barrier()

        def receiver(comm):
            yield comm.elapse(1.0)
            data = yield comm.recv(source=0, tag=3)
            yield comm.barrier()
            return data.tolist()

        assert run([sender, receiver], cost=COST).returns[1] == [0, 1, 2, 3]


class TestCollectiveAgreement:
    def test_kind_mismatch_raises(self):
        def a(comm):
            yield comm.barrier()

        def b(comm):
            yield comm.allreduce(1)

        with pytest.raises(CollectiveMismatchError):
            run([a, b], cost=COST)

    def test_mismatch_detected_in_later_slot(self):
        """Agreement is per call index: slot 0 agrees, slot 1 doesn't."""

        def a(comm):
            yield comm.barrier()
            yield comm.bcast("x", root=0)

        def b(comm):
            yield comm.barrier()
            yield comm.gather("y", root=0)

        with pytest.raises(CollectiveMismatchError) as err:
            run([a, b], cost=COST)
        assert "#1" in str(err.value)

    def test_matching_kinds_in_order_work(self):
        def prog(comm):
            yield comm.barrier()
            total = yield comm.allreduce(comm.rank)
            everything = yield comm.allgather(comm.rank)
            return (total, everything)

        result = run(prog, 4, cost=COST)
        assert result.returns == [(6, (0, 1, 2, 3))] * 4

    def test_missing_collective_participant_deadlocks(self):
        """One rank skipping a collective is a hang, not a hidden pass."""

        def a(comm):
            yield comm.barrier()

        def b(comm):
            if False:
                yield  # generator, but never calls the barrier
            return None

        with pytest.raises(DeadlockError):
            run([a, b], cost=COST)
