"""The collectives SimMPI's programs call, one implementation a size regime.

The engine provides collectives as primitives whose cost is modelled
analytically.  Above :data:`FLAT_COLLECTIVE_MAX` ranks that model loses
the network's log-depth structure, so this module also composes the
collectives the programs use from point-to-point messages, as real MPI
implementations do: binomial-tree ``tree_gather``/``tree_reduce``/
``tree_bcast``/``tree_allreduce`` and a recursive-doubling
``tree_allgather``.  Their returns are bit-identical to the engine's
flat collectives: reductions gather payloads up the tree and fold **in
rank order at the root**, exactly like the flat left-fold, so
floating-point non-associativity can never make the two disagree.

:func:`allreduce` and :func:`allgather` choose between the engine
primitive and the tree algorithm by group size alone (flat at or below
:data:`FLAT_COLLECTIVE_MAX` ranks, tree above).  They take no algorithm
option: a program that wants one fixed algorithm calls the ``comm.*``
primitive or the ``tree_*`` function by name.
:func:`batched_request_reply` is the HOT library's latency-hiding
request round (paper section 4.2).

All are generator functions, delegated to with ``yield from`` inside a
rank program run by :func:`~repro.simmpi.run`:

>>> from repro.simmpi import run
>>> def program(comm):
...     total = yield from allreduce(comm, comm.rank)
...     ranks = yield from allgather(comm, comm.rank)
...     asks = [[comm.rank] if p != comm.rank else None for p in range(comm.size)]
...     replies, _ = yield from batched_request_reply(
...         comm, asks, lambda peer, batch: [10 * x for x in batch])
...     return total, ranks, replies
>>> run(program, 3).returns[1]
(3, (0, 1, 2), [[10], None, [10]])
"""

from __future__ import annotations

from functools import reduce as _fold
from itertools import compress
from typing import Any, Callable, Generator

from .api import SUM, Comm, payload_nbytes

__all__ = [
    "batched_request_reply",
    "tree_gather",
    "tree_reduce",
    "tree_bcast",
    "tree_allreduce",
    "tree_allgather",
    "allreduce",
    "allgather",
    "FLAT_COLLECTIVE_MAX",
]

#: Group size at or below which :func:`allreduce` and :func:`allgather`
#: use the engine's flat primitive and :func:`batched_request_reply`
#: its dense round; above it they switch to the tree algorithms and the
#: sparse round.  Small groups keep the analytically-costed primitive
#: (and its existing golden traces); large groups get O(log P) depth.
FLAT_COLLECTIVE_MAX = 32

#: Default tag of the :func:`batched_request_reply` requests; replies
#: travel on the next tag.  Requests and replies between the same pair
#: of ranks are in flight simultaneously; distinct tags keep the two
#: streams from matching each other while FIFO ordering disambiguates
#: successive rounds.
REQUEST_TAG = 7_101


def batched_request_reply(
    comm: Comm,
    requests_by_peer: list[Any],
    serve: Callable[[int, Any], Any],
    overlap: Generator | None = None,
    tag: int = REQUEST_TAG,
    sparse: bool | None = None,
) -> Generator:
    """One nonblocking round of batched request/reply with overlap.

    The latency-hiding primitive behind the HOT traversal: every rank
    simultaneously acts as a *client* (sending one coalesced request
    batch per peer) and a *server* (answering the batches that arrive
    from its peers), with an optional ``overlap`` generator — typically
    useful local computation — running while the requests are in
    flight.

    Parameters
    ----------
    requests_by_peer:
        Length-``comm.size`` list; entry ``p`` is the request batch for
        rank ``p`` (ignored at index ``comm.rank``).  In the dense
        exchange, empty batches are sent anyway so the pattern stays
        symmetric and deterministic — every rank posts exactly the same
        operations.  In the sparse exchange only truthy batches travel.
    serve:
        ``serve(peer, batch) -> reply`` called once per peer after that
        peer's request batch arrives.  It must not communicate.
    overlap:
        Optional generator delegated to (``yield from``) after all
        sends/receives are posted and before any wait — its compute
        charges fill the time the requests spend on the wire.
    tag:
        Base tag; requests use ``tag`` and replies ``tag + 1``.
    sparse:
        ``False`` runs the classic dense round: every rank exchanges
        with every peer, empty batches included — O(P²) messages, fine
        at the paper's machine size, and the behavior all existing
        traces were recorded against.  ``True`` first agrees on the
        active pairs with one alltoall of flags, then posts messages
        only where a batch actually travels — O(active pairs), the
        difference between minutes and hours of simulation at P = 2560
        when most batches are empty.  ``None`` (default) selects by
        group size: dense at or below :data:`FLAT_COLLECTIVE_MAX`
        ranks (preserving the existing goldens), sparse above.

    Returns
    -------
    (replies, overlap_result):
        ``replies`` is a length-``comm.size`` list with peer ``p``'s
        reply at index ``p`` (``None`` at ``comm.rank``, and in the
        sparse exchange also at peers we sent no batch to);
        ``overlap_result`` is the ``overlap`` generator's return value
        (``None`` when no generator was given).

    Must be called collectively: each rank participates in every round
    (callers typically decide how many rounds to run with an allreduce
    on the number of outstanding requests).
    """
    size, rank = comm.size, comm.rank
    if len(requests_by_peer) != size:
        raise ValueError("one request batch per peer rank required")
    if sparse is None:
        sparse = size > FLAT_COLLECTIVE_MAX
    if sparse:
        # One flag per destination; after the alltoall every rank knows
        # exactly which peers will send it a request batch, so both
        # message directions have a fixed, deterministic schedule.  The
        # size is declared, 8 + 8 bytes an int as the walk charges a
        # list, so no rank walks P flags of every rank's post.  Only
        # the few truthy entries cost Python steps; the P-long scans
        # run in C.
        targets = [p for p in compress(range(size), requests_by_peer) if p != rank]
        flags = [0] * size
        for p in targets:
            flags[p] = 1
        incoming = yield comm.alltoall(flags, nbytes=16 * size)
        senders = [p for p in compress(range(size), incoming) if p != rank]
    else:
        senders = targets = [p for p in range(size) if p != rank]

    # Post all receives first (requests and replies), then launch the
    # request batches: from this point every message of the round is in
    # flight and the overlap work runs concurrently with the network.
    req_in = []
    for p in senders:
        r = yield comm.irecv(source=p, tag=tag)
        req_in.append(r)
    rep_in = []
    for p in targets:
        r = yield comm.irecv(source=p, tag=tag + 1)
        rep_in.append(r)
    out = []
    for p in targets:
        r = yield comm.isend(requests_by_peer[p], dest=p, tag=tag)
        out.append(r)

    overlap_result = None
    if overlap is not None:
        overlap_result = yield from overlap

    batches = yield comm.waitall(req_in)
    for p, batch in zip(senders, batches):
        r = yield comm.isend(serve(p, batch), dest=p, tag=tag + 1)
        out.append(r)

    replies: list[Any] = [None] * size
    answers = yield comm.waitall(rep_in)
    for p, answer in zip(targets, answers):
        replies[p] = answer
    yield comm.waitall(out)
    return replies, overlap_result


# -- tree collectives ---------------------------------------------------
#
# All tree collectives are *collective calls*: every rank of the comm
# must enter them the same number of times, like the engine primitives.
# Protocol messages carry ``(payload, nbytes)`` pairs and pass the
# running size to ``comm.send(..., nbytes=...)`` explicitly, so the
# cost accounting stays exact while the recursive wire-size walk over
# ever-growing block dictionaries — O(P^2) entries across a gather —
# is never performed.

#: Base tags of the tree-collective message streams (distinct from the
#: request/reply pair at 7101/7102; FIFO ordering disambiguates
#: successive calls).
TREE_GATHER_TAG = 5_100
TREE_REDUCE_TAG = 5_150
TREE_ALLREDUCE_TAG = 5_200
TREE_BCAST_TAG = 5_250
TREE_ALLGATHER_TAG = 5_300

#: Per-entry framing overhead charged on tree protocol messages.
_FRAME_NBYTES = 16


def tree_gather(comm: Comm, payload: Any, root: int = 0,
                tag: int = TREE_GATHER_TAG) -> Generator:
    """Binomial-tree gather: log2(P) depth, contiguous block merging.

    Ranks fold their payload dictionaries up a binomial tree rooted at
    ``root``; the root returns the payloads **in absolute rank order**
    (the ``comm.gather`` contract), everyone else returns ``None``.
    """
    size, rank = comm.size, comm.rank
    rel = (rank - root) % size
    blocks: dict[int, Any] = {rel: payload}
    nbytes = payload_nbytes(payload)
    mask = 1
    while mask < size:
        if rel & mask:
            parent = ((rel ^ mask) + root) % size
            yield comm.send((blocks, nbytes), dest=parent, tag=tag,
                            nbytes=nbytes + _FRAME_NBYTES)
            return None
        child = rel | mask
        if child < size:
            got, got_nb = yield comm.recv(source=(child + root) % size, tag=tag)
            blocks.update(got)
            nbytes += got_nb
        mask <<= 1
    return [blocks[(r - root) % size] for r in range(size)]


def tree_reduce(comm: Comm, payload: Any, root: int = 0, op: Callable = SUM,
                tag: int = TREE_REDUCE_TAG) -> Generator:
    """Binomial-tree reduction, bit-identical to ``comm.reduce``.

    Payloads are *gathered* up the tree and folded left-to-right in
    rank order at the root — never partially combined at interior
    nodes — so floating-point results match the flat collective
    exactly, not just to rounding.  Root gets the folded value,
    everyone else ``None``.
    """
    gathered = yield from tree_gather(comm, payload, root=root, tag=tag)
    if gathered is None:
        return None
    return _fold(op, gathered)


def tree_bcast(comm: Comm, payload: Any, root: int = 0,
               tag: int = TREE_BCAST_TAG) -> Generator:
    """Binomial-tree broadcast with sized protocol messages.

    log2(P) rounds of doubling senders.  The payload's wire size is
    computed once at the root and forwarded with the message, so
    broadcasting a P-entry list costs O(P) size accounting instead of
    O(P^2).  Every rank returns the same payload object.
    """
    size, rank = comm.size, comm.rank
    rel = (rank - root) % size
    if rank == root:
        data, nb = payload, payload_nbytes(payload)
    else:
        data, nb = None, 0
    mask = 1
    while mask < size:
        if rel < mask:
            partner = rel | mask
            if partner < size:
                yield comm.send((data, nb), dest=(partner + root) % size,
                                tag=tag, nbytes=nb + _FRAME_NBYTES)
        elif rel < 2 * mask:
            data, nb = yield comm.recv(source=((rel ^ mask) + root) % size, tag=tag)
        mask <<= 1
    return data


def tree_allreduce(comm: Comm, payload: Any, op: Callable = SUM,
                   tag: int = TREE_ALLREDUCE_TAG) -> Generator:
    """Reduce-to-root-0 then broadcast: bit-identical to ``comm.allreduce``.

    Like the flat collective, every rank receives the *same* folded
    object (payloads travel by reference inside the simulator).
    """
    folded = yield from tree_reduce(comm, payload, root=0, op=op, tag=tag)
    result = yield from tree_bcast(comm, folded, root=0, tag=tag + 1)
    return result


def tree_allgather(comm: Comm, payload: Any,
                   tag: int = TREE_ALLGATHER_TAG) -> Generator:
    """Allgather with O(log P) depth; matches ``comm.allgather``.

    Power-of-two groups use recursive doubling (each round exchanges
    the accumulated block, a tuple of the payloads of an aligned run of
    ranks, with the rank ``2^k`` away); other sizes gather to rank 0
    and broadcast.  Every rank returns a tuple in rank order, like the
    flat collective: after a broadcast the very same tuple; after
    recursive doubling its own, concatenated in C from the blocks.
    """
    size, rank = comm.size, comm.rank
    if size & (size - 1) == 0:
        block: tuple = (payload,)
        nb = payload_nbytes(payload)
        mask, step = 1, 0
        while mask < size:
            partner = rank ^ mask
            # A tuple travels by reference safely: no rank can change it.
            req = yield comm.isend((block, nb), partner, tag + step,
                                   nbytes=nb + _FRAME_NBYTES)
            got, got_nb = yield comm.recv(source=partner, tag=tag + step)
            yield comm.wait(req)
            block = block + got if rank < partner else got + block
            nb += got_nb
            mask <<= 1
            step += 1
        return block
    gathered = yield from tree_gather(comm, payload, root=0, tag=tag)
    everything = yield from tree_bcast(comm, None if gathered is None else tuple(gathered),
                                       root=0, tag=tag + 64)
    return everything


# -- automatic algorithm selection --------------------------------------

def allreduce(comm: Comm, payload: Any, op: Callable = SUM) -> Generator:
    """Size-selected allreduce: flat primitive small, tree large.

    Bit-identical results either way (see :func:`tree_allreduce`).
    """
    if comm.size <= FLAT_COLLECTIVE_MAX:
        result = yield comm.allreduce(payload, op=op)
    else:
        result = yield from tree_allreduce(comm, payload, op=op)
    return result


def allgather(comm: Comm, payload: Any) -> Generator:
    """Size-selected allgather: a rank-ordered tuple on every rank.

    Both paths size ``payload`` with :func:`~repro.simmpi.api.payload_nbytes`,
    so a payload that must be charged other than its walk declares an
    ``nbytes`` attribute.
    """
    if comm.size <= FLAT_COLLECTIVE_MAX:
        result = yield comm.allgather(payload)
    else:
        result = yield from tree_allgather(comm, payload)
    return result


