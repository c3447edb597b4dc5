"""Deterministic discrete-event execution of SimMPI programs.

The engine resumes rank generators in global virtual-time order.  Every
operation a rank yields is processed at that rank's current virtual
time; matches between sends and receives, collective completions, and
compute segments all schedule future resume events on a single heap
keyed by ``(time, sequence)``, so the simulation is bit-reproducible
regardless of host scheduling.

Message semantics follow MPI:

* point-to-point matching is FIFO per (source, dest) with tag and
  ``ANY_SOURCE``/``ANY_TAG`` wildcards, non-overtaking;
* sends at or below the cost model's eager threshold complete locally
  (buffered), larger sends complete only when matched (rendezvous);
* collectives match by per-rank call order and must agree in kind
  across the communicator, as the standard requires.

Scale: the engine is built to make 1000+-rank runs routine.  Pending
point-to-point operations are indexed per destination by ``(source,
tag)`` so matching a post is O(1) amortized instead of a scan over all
pending operations; waiters register on the requests they wait for and
are woken by completion, never polled; collectives rendezvous
incrementally (arrival count, running straggler max) instead of
re-deriving group state per arrival; and all per-operation records use
``__slots__``.  ``record_trace=False`` keeps observability memory at
zero for the largest runs (see :class:`Engine`).

Time accounting: each rank carries its own clock; a resumed rank's
blocked interval is charged to ``blocked_s`` so benches can separate
compute from communication wait, which is exactly the decomposition the
paper's scaling discussions rely on.

Fault injection: an optional :class:`~repro.simmpi.faults.FaultPlan`
schedules §2.1-style failures against the run.  Slow-node and
link-degradation events stretch compute segments and transfers while
active; a node crash aborts the whole job (the 2003 MPI reality) by
raising :class:`~repro.simmpi.faults.RankFailedError` at exactly the
crash's virtual time — unless the doomed rank already finished, in
which case its node dying no longer takes the job down.  Checkpoint /
restart on top of this lives in :mod:`repro.resilience`.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from functools import reduce as _fold
from typing import Any, Callable, Generator, Sequence

from ..machine.perfmodel import Workload
from ..obs import Recorder, Span, wallclock
from .api import (
    ANY_SOURCE,
    ANY_TAG,
    CollectiveOp,
    Comm,
    Compute,
    Elapse,
    Irecv,
    Isend,
    Now,
    Op,
    Recv,
    Request,
    Send,
    Wait,
    Waitall,
)
from .cost import CostModel, ZeroCost
from .faults import FaultPlan, RankFailedError

__all__ = [
    "DeadlockError",
    "CollectiveMismatchError",
    "EventBudgetError",
    "RankFailedError",
    "RankStats",
    "SimResult",
    "Engine",
    "run",
]

#: Heap sentinel marking a scheduled node-crash event.
_CRASH = object()

#: Messages at or below this size complete at the sender immediately
#: (models MPI eager-protocol buffering). Cost models may override via
#: an ``eager_nbytes`` attribute.
DEFAULT_EAGER_NBYTES = 64 * 1024

#: Historical flat event cap; the default budget never drops below it
#: so pre-existing callers keep their headroom.
DEFAULT_MAX_EVENTS = 50_000_000

#: Default per-rank slice of the event budget.  The effective default
#: cap is ``max(DEFAULT_MAX_EVENTS, DEFAULT_EVENTS_PER_RANK * size)``:
#: scale-aware, and never stricter than the old flat 50 M.
DEFAULT_EVENTS_PER_RANK = 250_000


class DeadlockError(RuntimeError):
    """All ranks blocked with no pending events: a genuine deadlock."""


class CollectiveMismatchError(RuntimeError):
    """Ranks disagreed on the kind of their n-th collective call."""


class EventBudgetError(RuntimeError):
    """The event budget was exhausted before the simulation finished.

    Carries a ``diagnostic`` dict naming the hottest ranks by resume
    count and a histogram of what every rank was doing when the budget
    ran out — the first things to look at when deciding whether the
    run is a runaway or just bigger than the cap.
    """

    def __init__(self, message: str, diagnostic: dict[str, Any] | None = None):
        super().__init__(message)
        self.diagnostic = diagnostic or {}


@dataclass(slots=True)
class RankStats:
    """Per-rank accounting accumulated during the run."""

    compute_s: float = 0.0
    blocked_s: float = 0.0
    bytes_sent: int = 0
    msgs_sent: int = 0
    bytes_received: int = 0
    msgs_received: int = 0


@dataclass
class SimResult:
    """Outcome of a simulation: per-rank clocks, stats, return values.

    ``observer`` is the :class:`~repro.obs.Recorder` the engine created
    for a traced run, holding every rank's virtual-time spans and the
    run's counters (None with ``record_trace=False``).
    """

    clocks: list[float]
    stats: list[RankStats]
    returns: list[Any]
    observer: Recorder | None = None

    @property
    def trace(self) -> list[Span]:
        """The run's spans, in recording order (empty untraced)."""
        return self.observer.spans if self.observer is not None else []

    @property
    def elapsed(self) -> float:
        """Virtual wall-clock of the parallel job (slowest rank)."""
        return max(self.clocks) if self.clocks else 0.0

    @property
    def total_compute_s(self) -> float:
        return sum(s.compute_s for s in self.stats)

    @property
    def total_bytes_sent(self) -> int:
        return sum(s.bytes_sent for s in self.stats)

    def parallel_efficiency(self) -> float:
        """compute-time / (ranks * elapsed): 1.0 means no comm wait."""
        if self.elapsed == 0.0 or not self.clocks:
            return 1.0
        return self.total_compute_s / (len(self.clocks) * self.elapsed)


@dataclass(slots=True)
class _SendRec:
    src: int
    dst: int
    tag: int
    payload: Any
    nbytes: int
    t_posted: float
    seq: int
    request: Request


@dataclass(slots=True)
class _RecvRec:
    dst: int
    source: int
    tag: int
    t_posted: float
    seq: int
    request: Request


@dataclass(slots=True)
class _Waiter:
    """One blocked wait/waitall (or blocking send/recv) with a live
    count of incomplete requests; woken by request completion."""

    rank: int
    requests: tuple[Request, ...]
    t_posted: float
    single: bool
    seq: int
    n_pending: int = 0


class _Rendezvous:
    """Incremental per-call-index collective matching state.

    Arrivals fold into a count, a running ``(t_last, last_rank)``
    straggler max, and a running payload-size max, so finishing the
    collective is O(1) bookkeeping per arrival instead of a group-wide
    re-derivation — the piece that used to go O(P²)-ish at high rank
    counts with many in-flight collectives.
    """

    __slots__ = ("kind", "ops", "count", "t_last", "last_rank", "nbytes")

    def __init__(self, size: int):
        self.kind: str | None = None
        self.ops: list[CollectiveOp | None] = [None] * size
        self.count = 0
        self.t_last = float("-inf")
        self.last_rank = -1
        self.nbytes = 0


@dataclass(slots=True)
class _RankState:
    gen: Generator
    clock: float = 0.0
    done: bool = False
    blocked_since: float | None = None
    blocked_on: tuple = ()
    blocked_name: str = ""
    blocked_args: dict[str, Any] | None = None
    return_value: Any = None
    coll_count: int = 0
    stats: RankStats = field(default_factory=RankStats)
    #: The label of the last ``Compute`` the rank yielded (kept only
    #: while a wall-clock profile is installed; see :class:`_LabelClock`).
    label: str = ""


def _blocked(why: tuple) -> tuple[str, dict[str, Any]]:
    """The span name and classification args of a blocked state, built
    only when a span or an error reads them.  ``why`` is ``("send" |
    "recv", peer, tag, seq)``, ``("wait", n_requests)`` or
    ``("collective", index, kind, t_arrive)``."""
    what = why[0]
    if what == "wait":
        return f"wait on {why[1]} request(s)", {"wait": "wait", "n_reqs": why[1]}
    if what == "collective":
        _, idx, kind, t = why
        return (f"collective #{idx} ({kind})",
                {"wait": "collective", "coll": idx, "kind": kind, "t_arrive": t})
    _, peer, tag, seq = why
    return (f"{what} {'to' if what == 'send' else 'from'} {peer} tag {tag}",
            {"wait": what, "peer": peer, "tag": tag, "seq": seq})


def _outermost(spans: list[Span], first: int) -> list[Span]:
    """The spans of ``spans[first:]`` that no other of them contains,
    latest first.  Spans are appended as they close, so each one's
    descendants come right before it: scanning backwards, a span that
    starts before the last outermost one is the next outermost."""
    out: list[Span] = []
    cut = math.inf
    for s in reversed(spans[first:]):
        if s.t_start < cut:
            out.append(s)
            cut = s.t_start
    return out


class _LabelClock:
    """The rank programs' own host seconds, split by compute label.

    Installed by :meth:`Engine.run` while a wall-clock profile is: each
    resume of a rank (its ``gen.send`` interval, minus the wall spans
    opened inside it) is charged to the label of the last ``Compute``
    the rank yielded, counting the one that ends the interval, so the
    host work a program does before it charges a phase lands on that
    phase.  :meth:`emit` then records one ``core.parallel.<label>``
    span per label under ``simmpi.engine``: an aggregate, laid end to
    end over the engine's own time from its start, each span wrapping
    whatever engine child spans it meets whole.  So every label's self
    seconds are exactly what its resumes cost, the other spans keep
    theirs, and the table still partitions the run.  Time before a
    rank's first ``Compute`` stays the engine's.
    """

    __slots__ = ("rec", "start", "first", "seconds")

    def __init__(self, rec: Recorder):
        self.rec, self.start, self.first, self.seconds = rec, rec.now(), len(rec.spans), {}

    def send(self, state: _RankState, value: Any) -> Any:
        rec, first, t0, op = self.rec, len(self.rec.spans), self.rec.now(), None
        try:
            op = state.gen.send(value)
            return op
        finally:
            if type(op) is Compute:
                state.label = op.label
            if state.label:
                inner = sum(s.duration for s in _outermost(rec.spans, first))
                self.seconds[state.label] = (self.seconds.get(state.label, 0.0)
                                             + (rec.now() - t0 - inner))

    def emit(self) -> None:
        rec, t, end = self.rec, self.start, self.rec.now()
        children = _outermost(rec.spans, self.first)
        for label, need in self.seconds.items():
            start = t
            while children and children[-1].t_start - t < need:
                need -= children[-1].t_start - t
                t = children.pop().t_end
            t = min(t + need, end)
            if t > start:
                rec.add_span(f"core.parallel.{label}", start, t, cat="wall")


class Engine:
    """Runs a set of rank programs to completion under a cost model.

    ``record_trace`` gives the run its own virtual-time recorder,
    ``observer``, holding every rank's compute and blocked spans and the
    run's counters; without it ``observer`` is None, nothing is recorded,
    and virtual time, rank stats and returns are the same.  Wall-clock spans
    (``simmpi.engine``, ``simmpi.dispatch``, and one
    ``core.parallel.<label>`` per compute label for the rank programs'
    own host work, see :class:`_LabelClock`) go to the recorder
    :func:`repro.obs.wallclock.profile` installed, if any.
    """

    def __init__(
        self,
        programs: Sequence[Callable[[Comm], Generator]],
        cost: CostModel | None = None,
        record_trace: bool = True,
        faults: FaultPlan | None = None,
    ):
        if not programs:
            raise ValueError("at least one rank program is required")
        self.cost = cost if cost is not None else ZeroCost()
        self.record_trace = record_trace
        self.faults = faults
        if faults is not None:
            faults.validate_ranks(len(programs))
        self.observer = Recorder() if record_trace else None
        self.eager_nbytes = getattr(self.cost, "eager_nbytes", DEFAULT_EAGER_NBYTES)
        self.size = len(programs)
        self._seq = itertools.count()
        self._events: list[tuple[float, int, int, Any]] = []  # (time, seq, rank, value)
        self._ranks: list[_RankState] = []
        # Pending p2p indexes, keyed by destination rank:
        #   sends[dst]: src -> tag -> FIFO of _SendRec
        #   recvs[dst]: (source, tag) incl. wildcards -> FIFO of _RecvRec
        # Each deque is FIFO in post (seq) order, so matching inspects
        # at most a handful of heads instead of scanning every pending
        # operation — the difference between O(1) and O(P) per post
        # during a request storm.
        self._sends: list[dict[int, dict[int, deque[_SendRec]]]] = [
            {} for _ in range(self.size)
        ]
        self._recvs: list[dict[tuple[int, int], deque[_RecvRec]]] = [
            {} for _ in range(self.size)
        ]
        #: Waiters whose last pending request just completed; flushed
        #: (fired in creation order) before control returns to the loop.
        self._ready: list[_Waiter] = []
        self._waiter_seq = itertools.count()
        self._collectives: dict[int, _Rendezvous] = {}
        self._resume_counts = [0] * self.size
        self._labels: _LabelClock | None = None
        self.comms = [Comm(rank=i, size=self.size) for i in range(self.size)]
        for i, prog in enumerate(programs):
            gen = prog(self.comms[i])
            if not hasattr(gen, "send") or not hasattr(gen, "throw"):
                raise TypeError(
                    f"rank {i} program did not return a generator; "
                    "SimMPI programs must use 'yield' for every operation"
                )
            self._ranks.append(_RankState(gen=gen))

    # -- scheduling -----------------------------------------------------
    def _schedule(self, time: float, rank: int, value: Any = None) -> None:
        heapq.heappush(self._events, (time, next(self._seq), rank, value))

    def _resume(self, rank: int, time: float, value: Any) -> None:
        state = self._ranks[rank]
        if state.done:
            raise RuntimeError(f"resume of finished rank {rank}")
        if state.blocked_since is not None:
            state.stats.blocked_s += max(time - state.blocked_since, 0.0)
            if time > state.blocked_since and self.record_trace:
                self.observer.add_span(
                    state.blocked_name,
                    state.blocked_since,
                    time,
                    track=rank,
                    cat="collective" if state.blocked_on[0] == "collective" else "blocked",
                    args=state.blocked_args,
                )
            state.blocked_since = None
            state.blocked_on = ()
            state.blocked_args = None
        state.clock = max(state.clock, time)
        try:
            op = state.gen.send(value) if self._labels is None else self._labels.send(state, value)
        except StopIteration as stop:
            state.done = True
            state.return_value = stop.value
            return
        self._dispatch(rank, op)

    def _block(self, rank: int, why: tuple) -> None:
        """Mark ``rank`` blocked on ``why`` (see :func:`_blocked`)."""
        state = self._ranks[rank]
        state.blocked_since = state.clock
        state.blocked_on = why
        # The name and classification metadata of the blocked span; an
        # untraced run never emits one, so skip building them.
        if self.record_trace:
            state.blocked_name, state.blocked_args = _blocked(why)

    # -- operation dispatch ----------------------------------------------
    def _dispatch(self, rank: int, op: Op) -> None:
        """Hand ``op`` to its handler, looked up by its exact type."""
        entry = _HANDLERS.get(type(op))
        if entry is None:
            self._throw(rank, TypeError(f"rank {rank} yielded non-operation {op!r}"))
            return
        handler, comm = entry
        t = self._ranks[rank].clock
        if comm and wallclock.ACTIVE is not None:
            with wallclock.span("simmpi.dispatch"):
                handler(self, rank, op, t)
        else:
            handler(self, rank, op, t)

    def _compute(self, rank: int, op: Compute, t: float) -> None:
        dt = self.cost.compute_time(rank, Workload(op.flops, op.mem_bytes, op.flop_efficiency))
        if self.faults is not None:
            dt *= self.faults.compute_factor(rank, t)
        self._ranks[rank].stats.compute_s += dt
        if dt > 0 and self.record_trace:
            self.observer.add_span(
                op.label or "compute", t, t + dt, track=rank, cat="compute"
            )
        self._schedule(t + dt, rank)

    def _elapse(self, rank: int, op: Elapse, t: float) -> None:
        if not 0.0 <= op.seconds < math.inf:
            self._throw(rank, ValueError(
                f"elapse seconds must be finite and non-negative, got {op.seconds!r}"))
            return
        self._ranks[rank].stats.compute_s += op.seconds
        if op.seconds > 0 and self.record_trace:
            self.observer.add_span(
                op.label or "elapse", t, t + op.seconds, track=rank, cat="compute"
            )
        self._schedule(t + op.seconds, rank)

    def _throw(self, rank: int, exc: Exception) -> None:
        state = self._ranks[rank]
        try:
            state.gen.throw(exc)
        except StopIteration as stop:
            state.done = True
            state.return_value = stop.value
            return
        except Exception:
            raise
        raise RuntimeError(f"rank {rank} swallowed engine exception and kept yielding")

    # -- point to point ---------------------------------------------------
    def _post_send(self, rank: int, op: Send | Isend, t: float) -> None:
        req = Request(rank, "send", next(self._seq))
        rec = _SendRec(rank, op.dest, op.tag, op.payload, op.nbytes, t, req.seq, req)
        stats = self._ranks[rank].stats
        stats.bytes_sent += op.nbytes
        stats.msgs_sent += 1
        if self.record_trace:
            self.observer.count("simmpi.bytes_sent", op.nbytes)
            self.observer.count("simmpi.msgs_sent")
        if op.nbytes <= self.eager_nbytes:
            # Buffered: sender's obligation ends after the injection
            # overhead, match or no match.
            inject = self.cost.p2p_time(rank, op.dest, 0)
            if self.faults is not None:
                inject *= self.faults.link_factor(rank, op.dest, t)
            req.complete_time = t + inject
        recv = self._match_new_send(rec)
        if recv is not None:
            self._complete_transfer(rec, recv)
        else:
            by_tag = self._sends[op.dest].setdefault(rank, {})
            dq = by_tag.get(op.tag)
            if dq is None:
                by_tag[op.tag] = deque((rec,))
            else:
                dq.append(rec)
        if self._ready:
            self._flush_ready()
        if type(op) is Isend:
            self._schedule(t, rank, req)
        elif req.complete_time is not None:
            self._schedule(req.complete_time, rank)
        else:
            self._block(rank, ("send", op.dest, op.tag, req.seq))
            self._register_waiter(
                _Waiter(rank, (req,), t, True, next(self._waiter_seq)), (req,)
            )

    def _post_recv(self, rank: int, op: Recv | Irecv, t: float) -> None:
        req = Request(rank, "recv", next(self._seq))
        rec = _RecvRec(rank, op.source, op.tag, t, req.seq, req)
        send = self._match_new_recv(rec)
        if send is not None:
            self._complete_transfer(send, rec)
        else:
            key = (op.source, op.tag)
            dq = self._recvs[rank].get(key)
            if dq is None:
                self._recvs[rank][key] = deque((rec,))
            else:
                dq.append(rec)
        if self._ready:
            self._flush_ready()
        if type(op) is Irecv:
            self._schedule(t, rank, req)
        elif req.complete_time is not None:
            self._schedule(req.complete_time, rank, req.value)
        else:
            self._block(rank, ("recv", op.source, op.tag, req.seq))
            self._register_waiter(
                _Waiter(rank, (req,), t, True, next(self._waiter_seq)), (req,)
            )

    def _match_new_send(self, send: _SendRec) -> _RecvRec | None:
        """Earliest-posted pending recv at ``send.dst`` matching ``send``.

        Deques are FIFO in post order, so only the four candidate key
        heads — (src, tag), (src, ANY), (ANY, tag), (ANY, ANY) — need
        comparing; the winner is popped and returned.
        """
        recvs = self._recvs[send.dst]
        if not recvs:
            return None
        best_key: tuple[int, int] | None = None
        best_seq = -1
        for key in (
            (send.src, send.tag),
            (send.src, ANY_TAG),
            (ANY_SOURCE, send.tag),
            (ANY_SOURCE, ANY_TAG),
        ):
            dq = recvs.get(key)
            if dq and (best_key is None or dq[0].seq < best_seq):
                best_key = key
                best_seq = dq[0].seq
        if best_key is None:
            return None
        dq = recvs[best_key]
        rec = dq.popleft()
        if not dq:
            del recvs[best_key]
        return rec

    def _match_new_recv(self, recv: _RecvRec) -> _SendRec | None:
        """Earliest-posted pending send matching ``recv`` (at its rank).

        Specific (source, tag) looks at one deque head; each wildcard
        widens the scan to the matching heads only — non-overtaking
        FIFO order within a (src, dst, tag) channel is free because the
        deques are FIFO.
        """
        sends = self._sends[recv.dst]
        if not sends:
            return None
        best: _SendRec | None = None
        if recv.source != ANY_SOURCE:
            by_tag = sends.get(recv.source)
            if not by_tag:
                return None
            if recv.tag != ANY_TAG:
                dq = by_tag.get(recv.tag)
                if dq:
                    best = dq[0]
            else:
                for dq in by_tag.values():
                    head = dq[0]
                    if best is None or head.seq < best.seq:
                        best = head
        elif recv.tag != ANY_TAG:
            for by_tag in sends.values():
                dq = by_tag.get(recv.tag)
                if dq:
                    head = dq[0]
                    if best is None or head.seq < best.seq:
                        best = head
        else:
            for by_tag in sends.values():
                for dq in by_tag.values():
                    head = dq[0]
                    if best is None or head.seq < best.seq:
                        best = head
        if best is None:
            return None
        by_tag = sends[best.src]
        dq = by_tag[best.tag]
        dq.popleft()
        if not dq:
            del by_tag[best.tag]
            if not by_tag:
                del sends[best.src]
        return best

    def _complete_transfer(self, send: _SendRec, recv: _RecvRec) -> None:
        start = max(send.t_posted, recv.t_posted)
        transfer = self.cost.p2p_time(send.src, recv.dst, send.nbytes)
        if self.faults is not None:
            transfer *= self.faults.link_factor(send.src, recv.dst, start)
        t_done = start + transfer
        recv.request.complete_time = t_done
        recv.request.value = send.payload
        # Matching metadata for the wait-state analyzer: which peer, at
        # what post time, satisfied this operation (the happens-before
        # edge of the message).  ``t_peer`` is always the *other* side's
        # post time, so a late peer reads as t_peer > the wait's start.
        # Its only reader is a traced run's blocked span (_fire_waiter).
        if self.record_trace:
            recv.request.match = {
                "req_kind": "recv", "peer": send.src, "tag": send.tag,
                "seq": send.seq, "nbytes": send.nbytes,
                "t_peer": send.t_posted, "t_self": recv.t_posted,
            }
            send.request.match = {
                "req_kind": "send", "peer": recv.dst, "tag": send.tag,
                "seq": send.seq, "nbytes": send.nbytes,
                "t_peer": recv.t_posted, "t_self": send.t_posted,
            }
        stats = self._ranks[recv.dst].stats
        stats.bytes_received += send.nbytes
        stats.msgs_received += 1
        if self.record_trace:
            self.observer.count("simmpi.bytes_received", send.nbytes)
            self.observer.count("simmpi.msgs_received")
        self._notify_completion(recv.request)
        if send.request.complete_time is None:
            # Rendezvous: sender is released when the transfer lands.
            send.request.complete_time = t_done
            self._notify_completion(send.request)

    # -- waiting ----------------------------------------------------------
    def _post_wait(self, rank: int, requests: tuple[Request, ...], t: float, single: bool) -> None:
        for req in requests:
            if not isinstance(req, Request):
                self._throw(rank, TypeError(f"wait on non-request {req!r}"))
                return
        waiter = _Waiter(rank, requests, t, single, next(self._waiter_seq))
        pending = [r for r in requests if r.complete_time is None]
        if not pending:
            self._fire_waiter(waiter)
            return
        self._block(rank, ("wait", len(requests)))
        self._register_waiter(waiter, pending)

    def _register_waiter(self, waiter: _Waiter, pending: Sequence[Request]) -> None:
        waiter.n_pending = len(pending)
        for req in pending:
            if req.waiters is None:
                req.waiters = [waiter]
            else:
                req.waiters.append(waiter)

    def _notify_completion(self, req: Request) -> None:
        waiters = req.waiters
        if waiters:
            req.waiters = None
            for w in waiters:
                w.n_pending -= 1
                if w.n_pending == 0:
                    self._ready.append(w)

    def _flush_ready(self) -> None:
        """Fire every waiter whose requests all completed, in waiter
        creation order — the same order the old full-list scan fired
        them, so traces and event sequencing are unchanged."""
        ready = self._ready
        if len(ready) > 1:
            ready.sort(key=lambda w: w.seq)
        for waiter in ready:
            self._fire_waiter(waiter)
        ready.clear()

    def _fire_waiter(self, waiter: _Waiter) -> None:
        requests = waiter.requests
        t_done = waiter.t_posted
        for r in requests:
            if r.complete_time > t_done:
                t_done = r.complete_time
        state = self._ranks[waiter.rank]
        if state.blocked_since is not None and state.blocked_args is not None:
            # The binding request — the one completing last — decides
            # how the blocked span is classified downstream.
            binding = max(requests, key=lambda r: (r.complete_time, r.seq))
            if binding.match is not None:
                state.blocked_args.update(binding.match)
        if waiter.single:
            value = requests[0].value
        else:
            value = [r.value for r in requests]
        self._schedule(t_done, waiter.rank, value)

    # -- collectives -------------------------------------------------------
    def _post_collective(self, rank: int, op: CollectiveOp, t: float) -> None:
        state = self._ranks[rank]
        state.stats.bytes_sent += op.nbytes
        state.stats.msgs_sent += 1
        if self.record_trace:
            self.observer.count("simmpi.bytes_sent", op.nbytes)
            self.observer.count("simmpi.collective_calls")
        idx = state.coll_count
        state.coll_count += 1
        rv = self._collectives.get(idx)
        if rv is None:
            rv = self._collectives[idx] = _Rendezvous(self.size)
        if rv.kind is None:
            rv.kind = op.kind
        elif op.kind != rv.kind:
            raise CollectiveMismatchError(
                f"collective #{idx}: ranks disagree on operation kind: "
                f"{sorted({rv.kind, op.kind})}"
            )
        rv.ops[rank] = op
        rv.count += 1
        if t > rv.t_last or (t == rv.t_last and rank > rv.last_rank):
            rv.t_last = t
            rv.last_rank = rank
        if op.nbytes > rv.nbytes:
            rv.nbytes = op.nbytes
        self._block(rank, ("collective", idx, op.kind, t))
        if rv.count == self.size:
            self._finish_collective(idx, rv)

    def _finish_collective(self, idx: int, rv: _Rendezvous) -> None:
        kind = rv.kind
        t_last = rv.t_last
        last_rank = rv.last_rank
        t_op = self.cost.collective_time(kind, self.size, rv.nbytes)
        t_done = t_last + t_op
        # Stamp the synchronization structure onto every member's
        # pending blocked span: who arrived last, and how much of the
        # wait is the operation itself vs. waiting for stragglers.
        for st in self._ranks:
            if st.blocked_since is not None and st.blocked_args is not None:
                st.blocked_args.update(
                    {"t_last": t_last, "last_rank": last_rank, "t_op": t_op}
                )
        values = self._collective_values(kind, rv.ops)
        del self._collectives[idx]
        for rank in range(self.size):
            self._schedule(t_done, rank, values[rank])

    def _collective_values(self, kind: str, ops: list[CollectiveOp]) -> list[Any]:
        size = self.size
        if kind == "barrier":
            return [None] * size
        if kind == "bcast":
            root = ops[0].root
            payload = ops[root].payload
            return [payload] * size
        if kind in ("reduce", "allreduce"):
            payloads = [op.payload for op in ops]
            folded = _fold(ops[0].op, payloads)
            if kind == "allreduce":
                return [folded] * size
            root = ops[0].root
            return [folded if r == root else None for r in range(size)]
        if kind == "allgather":
            # One tuple for every rank: payloads travel by reference
            # anyway, and no rank can change what the others hold.
            return [tuple(op.payload for op in ops)] * size
        if kind == "gather":
            root = ops[0].root
            return [[op.payload for op in ops] if r == root else None for r in range(size)]
        if kind == "scatter":
            root = ops[0].root
            items = ops[root].payload
            return [items[r] for r in range(size)]
        if kind == "alltoall":
            # The transpose, in C: P^2 references, no Python step each.
            return list(map(list, zip(*(op.payload for op in ops))))
        raise ValueError(f"unknown collective kind {kind!r}")

    # -- event budget diagnostics ------------------------------------------
    def _resolve_event_budget(self, max_events: int | None) -> int:
        if max_events is None:
            return max(DEFAULT_MAX_EVENTS, DEFAULT_EVENTS_PER_RANK * self.size)
        return _positive_int("max_events", max_events)

    def _event_budget_error(self, cap: int) -> EventBudgetError:
        counts = self._resume_counts
        hottest = sorted(range(self.size), key=lambda r: (-counts[r], r))[:5]
        states: dict[str, int] = {}
        for st in self._ranks:
            if st.done:
                key = "finished"
            elif st.blocked_since is None:
                key = "running"
            else:
                # 'send', 'recv', 'wait', 'collective'.
                key = st.blocked_on[0] if st.blocked_on else "blocked"
            states[key] = states.get(key, 0) + 1
        diagnostic = {
            "cap": cap,
            "size": self.size,
            "per_rank_budget": cap / self.size,
            "hottest_ranks": [(r, counts[r]) for r in hottest],
            "rank_states": states,
            "pending_sends": sum(
                len(dq) for sq in self._sends for by_tag in sq.values()
                for dq in by_tag.values()
            ),
            "pending_recvs": sum(
                len(dq) for rq in self._recvs for dq in rq.values()
            ),
            "collectives_in_flight": len(self._collectives),
        }
        hot = ", ".join(f"rank {r}: {n} resumes" for r, n in diagnostic["hottest_ranks"])
        hist = ", ".join(f"{k}={v}" for k, v in sorted(states.items()))
        msg = (
            f"event budget exhausted: {cap} events across {self.size} rank(s) "
            f"(~{cap / self.size:.0f}/rank). Hottest ranks: {hot}. "
            f"Rank states: {hist}. Pending ops: "
            f"{diagnostic['pending_sends']} send(s), "
            f"{diagnostic['pending_recvs']} recv(s), "
            f"{diagnostic['collectives_in_flight']} collective(s) in flight. "
            "Runaway simulation? If the workload is genuinely this large, "
            "raise max_events."
        )
        return EventBudgetError(msg, diagnostic)

    # -- main loop ----------------------------------------------------------
    def run(self, max_events: int | None = None) -> SimResult:
        """Run to completion; returns the :class:`SimResult`.

        The event budget is scale-aware: by default it is
        ``max(50_000_000, 250_000 * n_ranks)`` so big simulations get
        budget proportional to their size.  ``max_events``, a positive
        integer, sets the total cap instead (``ValueError`` otherwise).
        Exhausting the budget raises :class:`EventBudgetError` with
        per-rank diagnostics instead of an opaque failure.
        """
        cap = self._resolve_event_budget(max_events)
        if self.faults is not None:
            # Armed before the t=0 resumes so a crash sorts ahead of any
            # rank activity at the same virtual time.
            for crash in self.faults.crashes():
                self._schedule(crash.time, crash.rank, _CRASH)
        for rank in range(self.size):
            self._schedule(0.0, rank)
        processed = 0
        events = self._events
        ranks = self._ranks
        counts = self._resume_counts
        pop = heapq.heappop
        # Everything inside the event loop is charged to the
        # "simmpi.engine" wall-clock span unless a deeper one (dispatch,
        # kernels, the admit gather) claims it first.
        with wallclock.span("simmpi.engine"):
            if wallclock.ACTIVE is not None:
                self._labels = _LabelClock(wallclock.ACTIVE)
            while events:
                time, _, rank, value = pop(events)
                if value is _CRASH:
                    if ranks[rank].done:
                        continue  # node died after its rank finished: job survives
                    if self.record_trace:
                        self.observer.add_span("node crash", time, time, track=rank, cat="failed")
                    raise RankFailedError(rank, time)
                if ranks[rank].done:
                    continue
                self._resume(rank, time, value)
                counts[rank] += 1
                processed += 1
                if processed > cap:
                    raise self._event_budget_error(cap)
            if self._labels is not None:
                self._labels.emit()
        unfinished = [i for i, s in enumerate(ranks) if not s.done]
        if unfinished:
            detail = ", ".join(
                f"rank {i}: {_blocked(ranks[i].blocked_on)[0] if ranks[i].blocked_on else 'never blocked'}"
                for i in unfinished
            )
            raise DeadlockError(f"simulation deadlocked with {len(unfinished)} rank(s) blocked ({detail})")
        return SimResult(
            clocks=[s.clock for s in ranks],
            stats=[s.stats for s in ranks],
            returns=[s.return_value for s in ranks],
            observer=self.observer,
        )


#: ``type(op)`` -> (handler, timed by the "simmpi.dispatch" wall span).
_HANDLERS: dict[type, tuple[Callable, bool]] = {
    Compute: (Engine._compute, False),
    Elapse: (Engine._elapse, False),
    Now: (lambda self, rank, op, t: self._schedule(t, rank, t), False),
    **dict.fromkeys((Send, Isend), (Engine._post_send, True)),
    **dict.fromkeys((Recv, Irecv), (Engine._post_recv, True)),
    Wait: (lambda self, rank, op, t: self._post_wait(rank, (op.request,), t, True), True),
    Waitall: (lambda self, rank, op, t: self._post_wait(rank, op.requests, t, False), True),
    CollectiveOp: (Engine._post_collective, True),
}


def run(
    program: Callable[[Comm], Generator] | Sequence[Callable[[Comm], Generator]],
    n_ranks: int | None = None,
    cost: CostModel | None = None,
    max_events: int | None = None,
    faults: FaultPlan | None = None,
    record_trace: bool = True,
) -> SimResult:
    """Convenience front door: run one program SPMD-style or a list MPMD-style.

    ``run(worker, 8)`` launches eight ranks of ``worker``;
    ``run([master, worker, worker])`` launches heterogeneous programs.
    With ``faults``, the run executes under an injected failure schedule
    and may raise :class:`~repro.simmpi.faults.RankFailedError`.
    With ``record_trace``, the result's ``observer`` holds the run's
    spans and counters, and ``max_events`` sizes the event budget (see
    :meth:`Engine.run`).  ``n_ranks`` and ``max_events`` must be
    positive integers (``ValueError`` naming the argument otherwise).
    """
    if n_ranks is not None:
        _positive_int("n_ranks", n_ranks)
    if callable(program):
        if n_ranks is None:
            raise ValueError("SPMD launch requires a positive n_ranks")
        programs: Sequence = [program] * n_ranks
    else:
        programs = list(program)
        if n_ranks is not None and n_ranks != len(programs):
            raise ValueError("n_ranks disagrees with the number of programs")
    return Engine(programs, cost, record_trace=record_trace, faults=faults).run(max_events)


def _positive_int(name: str, value: Any) -> int:
    """``value`` if it is an integer (not a ``bool``) of at least 1,
    else a ``ValueError`` naming ``name``."""
    if isinstance(value, bool) or not hasattr(value, "__index__") or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)
