"""Operation descriptors and the rank-facing ``Comm`` API.

SimMPI programs are *generator functions*: a rank yields operation
descriptors to the engine and receives results back at the resumed
``yield`` expression, e.g.::

    def program(comm: Comm):
        right = (comm.rank + 1) % comm.size
        yield comm.isend(np.arange(4.0), dest=right, tag=0)
        data = yield comm.recv(source=ANY_SOURCE, tag=0)
        total = yield comm.allreduce(float(data.sum()))
        yield comm.compute(flops=1e9, mem_bytes=1e8)

The descriptor layer is deliberately dumb — all semantics (matching,
virtual time, reductions) live in :mod:`repro.simmpi.engine`.  Method
names and argument conventions follow mpi4py's lowercase object API so
the parallel treecode reads like an MPI code.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Sequence, Union

import numpy as np

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "MAX",
    "MIN",
    "SUM",
    "PROD",
    "payload_nbytes",
    "Request",
    "Op",
    "Send",
    "Recv",
    "Isend",
    "Irecv",
    "Wait",
    "Waitall",
    "Compute",
    "Elapse",
    "Now",
    "CollectiveOp",
    "Comm",
]

#: Wildcard source for receives (matches any sender).
ANY_SOURCE = -1
#: Wildcard tag for receives (matches any tag).
ANY_TAG = -1

# Reduction operators. Arrays reduce elementwise, scalars normally.
SUM = operator.add
PROD = operator.mul


def MAX(a, b):
    """Elementwise/scalar maximum reduction operator."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.maximum(a, b)
    return max(a, b)


def MIN(a, b):
    """Elementwise/scalar minimum reduction operator."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.minimum(a, b)
    return min(a, b)


def payload_nbytes(payload: Any) -> int:
    """Deterministic wire-size estimate for a message payload.

    NumPy arrays report their buffer size; bytes-likes their length;
    numbers 8 bytes; containers sum their elements plus a small framing
    overhead per element.  Any other object may declare its own wire
    size as an ``nbytes`` attribute, read in O(1) without a walk (a
    column batch of cell records and a batch of request keys do, each
    declaring what the list encoding it replaced was charged); anything
    else costs a flat 64 bytes — the point is reproducible cost
    accounting, not serialization fidelity.

    Returns the size in bytes as a plain ``int``.

    >>> payload_nbytes(np.zeros(16))
    128
    >>> payload_nbytes(b"abc"), payload_nbytes(3.5), payload_nbytes(None)
    (3, 8, 0)
    >>> payload_nbytes([np.zeros(2), 1])  # 16 + 8 payload, 8 + 8 framing
    40
    """
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, (bool, int, float, complex, np.generic)):
        return 8
    if isinstance(payload, str):
        return len(payload.encode())
    if isinstance(payload, (list, tuple)):
        return sum(payload_nbytes(item) + 8 for item in payload)
    if isinstance(payload, dict):
        return sum(payload_nbytes(k) + payload_nbytes(v) + 8 for k, v in payload.items())
    return int(getattr(payload, "nbytes", 64))


def _wire_nbytes(payload: Any, nbytes: int | None) -> int:
    """The ``nbytes=`` override of a descriptor when given, else the walk."""
    if nbytes is None:
        return payload_nbytes(payload)
    if nbytes < 0:
        raise ValueError(f"nbytes must be non-negative, got {nbytes}")
    return int(nbytes)


class Request:
    """Handle for a nonblocking operation, returned by isend/irecv.

    Completion is managed entirely by the engine: ``complete_time`` is
    set when the transfer finishes in virtual time, ``value`` carries
    the received payload for irecv.
    """

    __slots__ = ("rank", "kind", "seq", "complete_time", "value", "match", "waiters")

    def __init__(self, rank: int, kind: str, seq: int):
        self.rank = rank
        self.kind = kind
        self.seq = seq
        self.complete_time: float | None = None
        self.value: Any = None
        #: Matching metadata stamped by the engine when the transfer
        #: completes: peer rank, tag, post times — what the wait-state
        #: analyzer needs to reconstruct happens-before edges.  ``None``
        #: for an untraced owner: its only reader is the owner's blocked
        #: span, which an untraced rank never emits.
        self.match: dict[str, Any] | None = None
        #: Engine-internal: waiters registered on this request, woken
        #: when it completes (cleared on completion).
        self.waiters: list | None = None

    @property
    def is_complete(self) -> bool:
        return self.complete_time is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"done@{self.complete_time:.6g}" if self.is_complete else "pending"
        return f"<Request {self.kind} rank={self.rank} seq={self.seq} {state}>"


# The operations a rank may yield.  Each is an immutable record (a
# ``NamedTuple``: built and read at C speed, and assigning to a field
# raises); the engine looks an operation's handler up by its exact
# type, so the classes below are the whole vocabulary, not a hierarchy
# to extend, and a plain tuple is no operation.

class Send(NamedTuple):
    dest: int
    tag: int
    payload: Any
    nbytes: int


class Recv(NamedTuple):
    source: int
    tag: int


class Isend(NamedTuple):
    dest: int
    tag: int
    payload: Any
    nbytes: int


class Irecv(NamedTuple):
    source: int
    tag: int


class Wait(NamedTuple):
    request: Request


class Waitall(NamedTuple):
    requests: tuple[Request, ...]


class Compute(NamedTuple):
    """Advance the local clock by a modeled computation.

    ``label`` names the phase for the instrumentation layer (e.g.
    ``"tree-build"``); it has no effect on timing.
    """

    flops: float
    mem_bytes: float
    flop_efficiency: float = 1.0
    label: str = ""


class Elapse(NamedTuple):
    """Advance the local clock by a literal number of seconds (I/O,
    fixed overheads, anything outside the compute model).

    ``label`` names the interval for the instrumentation layer (e.g.
    ``"checkpoint-dump"``); it has no effect on timing.
    """

    seconds: float
    label: str = ""


class Now(NamedTuple):
    """Query the rank's virtual clock."""


class CollectiveOp(NamedTuple):
    """Common shape of all collectives: matched across the whole comm."""

    kind: str
    payload: Any = None
    root: int = 0
    op: Callable[[Any, Any], Any] | None = None
    nbytes: int = 0


#: Anything a rank may yield.
Op = Union[Send, Recv, Isend, Irecv, Wait, Waitall, Compute, Elapse, Now, CollectiveOp]


@dataclass
class Comm:
    """Rank-local facade: knows its rank/size and builds descriptors.

    The engine constructs one ``Comm`` per rank and passes it to the
    rank's program.  All methods are pure descriptor factories; yield
    the result to execute it.
    """

    rank: int
    size: int

    def __post_init__(self) -> None:
        if not 0 <= self.rank < self.size:
            raise ValueError(f"rank {self.rank} out of range for size {self.size}")

    def _check_peer(self, peer: int, *, wildcard_ok: bool = False) -> None:
        if wildcard_ok and peer == ANY_SOURCE:
            return
        if not 0 <= peer < self.size:
            raise ValueError(f"peer rank {peer} out of range for size {self.size}")

    def _check_send(self, dest: int, tag: int) -> None:
        self._check_peer(dest)
        if tag < 0:
            raise ValueError(f"send tag must be non-negative (ANY_TAG is for receives), got {tag}")

    # -- point to point -------------------------------------------------
    def send(self, payload: Any, dest: int, tag: int = 0,
             nbytes: int | None = None) -> Send:
        """Blocking send to rank ``dest``; wire size via :func:`payload_nbytes`.

        Pass ``nbytes`` to override the estimated wire size — the
        escape hatch for deeply nested payloads whose recursive size
        walk would dominate (tree-collective protocol messages carry
        their running size this way)."""
        self._check_send(dest, tag)
        return Send(dest, tag, payload, _wire_nbytes(payload, nbytes))

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Recv:
        """Blocking receive; yields the matched payload.  ``source``/``tag``
        accept the :data:`ANY_SOURCE` / :data:`ANY_TAG` wildcards."""
        self._check_peer(source, wildcard_ok=True)
        return Recv(source, tag)

    def isend(self, payload: Any, dest: int, tag: int = 0,
              nbytes: int | None = None) -> Isend:
        """Nonblocking send; yields a :class:`Request` to wait on later.
        Messages between a (sender, receiver, tag) triple match FIFO.
        ``nbytes`` overrides the estimated wire size (see :meth:`send`)."""
        self._check_send(dest, tag)
        return Isend(dest, tag, payload, _wire_nbytes(payload, nbytes))

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Irecv:
        """Nonblocking receive; yields a :class:`Request` whose ``value``
        holds the payload once waited on."""
        self._check_peer(source, wildcard_ok=True)
        return Irecv(source, tag)

    def wait(self, request: Request) -> Wait:
        """Block until ``request`` completes; yields its received value."""
        return Wait(request)

    def waitall(self, requests: Sequence[Request]) -> Waitall:
        """Block until every request completes; yields the list of
        received values in the order the requests were given."""
        return Waitall(tuple(requests))

    # -- local time -----------------------------------------------------
    def compute(
        self,
        flops: float,
        mem_bytes: float = 0.0,
        flop_efficiency: float = 1.0,
        label: str = "",
    ) -> Compute:
        """Advance this rank's virtual clock by a modeled computation of
        ``flops`` floating-point operations touching ``mem_bytes`` bytes;
        the cost model turns both into seconds (roofline-style)."""
        return Compute(flops, mem_bytes, flop_efficiency, label)

    def elapse(self, seconds: float, label: str = "") -> Elapse:
        """Advance this rank's virtual clock by ``seconds`` (virtual
        seconds) — for I/O and fixed overheads outside the compute model."""
        return Elapse(seconds, label)

    def now(self) -> Now:
        """Yield the rank's current virtual time in seconds."""
        return Now()

    # -- collectives ----------------------------------------------------
    def barrier(self) -> CollectiveOp:
        return CollectiveOp("barrier")

    def bcast(self, payload: Any, root: int = 0) -> CollectiveOp:
        self._check_peer(root)
        payload = payload if self.rank == root else None
        return CollectiveOp("bcast", payload, root, nbytes=payload_nbytes(payload))

    def reduce(self, payload: Any, root: int = 0, op: Callable = SUM) -> CollectiveOp:
        self._check_peer(root)
        return CollectiveOp("reduce", payload, root, op, payload_nbytes(payload))

    def allreduce(self, payload: Any, op: Callable = SUM) -> CollectiveOp:
        return CollectiveOp("allreduce", payload, op=op, nbytes=payload_nbytes(payload))

    def gather(self, payload: Any, root: int = 0) -> CollectiveOp:
        self._check_peer(root)
        return CollectiveOp("gather", payload, root, nbytes=payload_nbytes(payload))

    def allgather(self, payload: Any, nbytes: int | None = None) -> CollectiveOp:
        """All ranks contribute one payload and every rank receives the
        same tuple of all of them, in rank order; ``nbytes`` overrides
        the wire-size walk."""
        return CollectiveOp("allgather", payload, nbytes=_wire_nbytes(payload, nbytes))

    def scatter(self, payload: Sequence | None, root: int = 0) -> CollectiveOp:
        self._check_peer(root)
        if self.rank != root:
            return CollectiveOp("scatter", None, root)
        if payload is None or len(payload) != self.size:
            raise ValueError("scatter root must supply one item per rank")
        payload = tuple(payload)
        return CollectiveOp("scatter", payload, root, nbytes=payload_nbytes(payload))

    def alltoall(self, payload: Sequence, nbytes: int | None = None) -> CollectiveOp:
        """Personalized exchange: rank ``i`` receives element ``i`` of
        every rank's list; ``nbytes`` overrides the wire-size walk
        (worth supplying at high rank counts — the default walk visits
        all P entries of the list)."""
        if len(payload) != self.size:
            raise ValueError("alltoall requires one item per rank")
        payload = tuple(payload)
        return CollectiveOp("alltoall", payload, nbytes=_wire_nbytes(payload, nbytes))
