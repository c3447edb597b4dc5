"""The parallel hashed oct-tree N-body code, on SimMPI.

This module reassembles the full HOT pipeline of Section 4.2:

1. **Key assignment & parallel sort** — every rank keys its particles
   (global bounding box agreed by allreduce), samples splitter
   candidates, and the ranks agree on key-space splitters; an alltoall
   moves each particle to its owner.  This is the "domain decomposition
   … practically identical to a parallel sorting algorithm".
2. **Branch cells** — each rank computes the coarsest cells fully
   inside its key range (:func:`~repro.core.cellserver.cover_interval`)
   and the ranks allgather those cells' multipoles; everyone assembles
   the shared top of the global tree ("frame") by parallel-axis
   aggregation.
3. **Traversal with deferral** — sink groups walk the global tree by
   key.  Misses on remote cells do not stall the walk: the group is
   parked on a software deferral queue and its key requests are
   *batched per destination*; other groups keep walking.  Replies
   (cell records, or particles for leaves) land in a local cache keyed
   by the global key namespace, and parked groups resume.
4. **Evaluation** — interaction lists are evaluated with the same
   vectorized monopole+quadrupole / direct kernels as the serial code.

Two communication schedules drive step 3, selected by
``ParallelConfig.comm``:

``"async"`` (default)
    The latency-hiding schedule the paper's HOT library uses over
    commodity networks.  Outstanding misses are deduplicated into one
    coalesced request batch per owner and sent with nonblocking
    point-to-point messages
    (:func:`~repro.simmpi.patterns.batched_request_reply`); while the
    requests are on the wire, the rank *evaluates the force kernels of
    every group that already completed its walk* — computation covers
    communication.  Replies land in a persistent
    :class:`~repro.core.cellcache.CellCache` that survives rounds (and,
    in the multi-step driver, timesteps), and a locally-essential-tree
    prefetch (:attr:`ParallelConfig.prefetch`) MAC-tests the domain
    boundary to bulk-fetch likely-needed cells before the walk starts.

``"blocking"``
    The bulk-synchronous reference: each round is an alltoall of
    request batches, a serve step, and an alltoall of replies
    (:class:`~repro.core.abm.ABMChannel`), with all evaluation *after*
    the exchange.  Kept for differential testing — both schedules
    produce bit-identical accelerations and interaction counts, the
    same convention PR 4 established for kernel backends.

Because a cell's leaf-or-internal status depends only on its *global*
particle count, every rank derives the same virtual global tree, and
the result approximates the serial treecode to within MAC error for
any number of ranks.

Virtual time: compute segments charge the cost model with the real
interaction counts (38 flops per particle-particle, 70 per
particle-cell — the paper's accounting), so
:class:`~repro.simmpi.engine.SimResult` timings are meaningful and feed
the Table 6 benchmark.

Resilience: the rank program optionally carries a
:class:`~repro.resilience.checkpoint.Checkpointer`.  Right after the
particle exchange — the point where the expensive-to-recreate
*distributed* state (sorted keyed particles plus the splitter
agreement) first exists — each rank dumps that state through the
two-phase checkpoint store.  On an injected node crash
(:class:`~repro.simmpi.faults.RankFailedError`), the restart loop in
:mod:`repro.resilience.runner` relaunches the program, which restores
the decomposition from its committed snapshot and redoes only the
traversal.  Because the traversal is a deterministic function of that
state, the recovered accelerations are **bit-for-bit identical** to the
fault-free run's — the property ``tests/test_cross_consistency.py``
pins.

One rank program: :func:`parallel_tree_accelerations` and
:func:`parallel_nbody_run` run the *same* program
(:func:`_make_program`).  What differs is derived from the particle
columns it is handed — without a velocity column nothing can move, so
there is no drift padding of the box, no fingerprint allgather, no
kick, and the loop ends after one force evaluation.  The rank-local
halves of the sample sort live in :mod:`repro.core.domain`; here
:func:`_key_and_sort` + :func:`_exchange` are steps 1–2 of the anatomy
in ``docs/ARCHITECTURE.md``, :func:`_global_tree` steps 3–4, and
:class:`_Traversal` steps 6–9.

Multiple timesteps: :func:`parallel_nbody_run` integrates the system
through ``n_steps`` kick–drift steps inside one SimMPI run, reusing the
remote-cell cache across steps (entries are invalidated by branch
fingerprint when an owner's subtree changes) and *incrementally*
rebalancing the domain boundaries from the measured per-particle
interaction work of the previous step
(:func:`~repro.core.domain.splitter_candidates`) — the paper's
work-weighted decomposition fed by real measurements instead of uniform
weights.
"""

from __future__ import annotations

import bisect
import math
import tempfile
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Any

import numpy as np

from ..obs import Recorder
from ..simmpi.api import MAX as MPI_MAX
from ..simmpi.api import MIN as MPI_MIN
from ..simmpi.cost import CostModel
from ..simmpi.engine import SimResult, run
from ..simmpi.faults import FaultPlan
from ..simmpi import patterns as mpi_patterns
from ..simmpi.patterns import batched_request_reply

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (resilience -> core)
    from ..resilience.checkpoint import Checkpointer
    from ..resilience.runner import ResilienceConfig, ResilientResult
from .abm import ABMChannel
from .backend import get_backend
from .cellcache import CellCache
from .cellserver import CellRecord, CellServer, combine_records, cover_interval, key_interval
from .domain import (
    key_sort,
    merge_splitter_candidates,
    pick_splitters,
    piece_bounds,
    sample_splitters,
    splitter_candidates,
)
from .keys import ROOT_KEY, BoundingBox, key_level, keys_from_positions
from .mac import OpeningAngleMAC
from ..obs.wallclock import bucket as _wall_bucket
from .traversal import (
    DEFAULT_PAIR_CHUNK,
    FLOPS_PER_CELL_INTERACTION,
    InteractionCounts,
)
from ..machine.specs import FLOPS_PER_INTERACTION

__all__ = [
    "ParallelConfig",
    "ParallelGravityResult",
    "ParallelRunResult",
    "parallel_tree_accelerations",
    "parallel_nbody_run",
]

#: Modeled flop cost of one MAC evaluation during list construction.
FLOPS_PER_MAC_TEST = 12.0

#: Base tag of the traversal's batched request/reply rounds (prefetch
#: waves use ``_FETCH_TAG + 10`` so traces distinguish the phases).
_FETCH_TAG = 7_200


@dataclass(frozen=True)
class ParallelConfig:
    """Tunables of the parallel treecode.

    Parameters
    ----------
    theta:
        Opening angle of the multipole acceptance criterion
        (dimensionless; smaller is more accurate and more expensive).
    eps:
        Plummer softening length, in position units.
    G:
        Gravitational constant (sets the unit system; accelerations
        come out in ``G * mass / length**2`` units).
    bucket_size:
        Maximum particles per leaf of the global virtual tree.
    oversample:
        Splitter samples per rank in the parallel sample sort.
    kernel_efficiency:
        Fraction of machine peak the force inner loops sustain; scales
        every modeled compute charge (Table 6 calibration knob).
    max_rounds:
        Safety bound on traversal request/reply rounds.
    backend:
        Kernel backend name (``None`` -> ``$REPRO_BACKEND``/numpy).
    eval:
        Force-evaluation strategy for completed walks: ``"batched"``
        (default) concatenates every ready group's interaction list
        into flat CSR rectangles and issues **one** cell and one
        direct kernel call per round — the shape the ``numba`` and
        ``multiprocess`` backends accelerate; ``"pergroup"`` is the
        historical one-dense-call-per-group walker, kept as the
        differential reference.  Both charge identical virtual time
        (same flop/byte totals) and agree to float tolerance.
    comm:
        Communication schedule for the traversal: ``"async"``
        (latency-hiding batched nonblocking messages, the default) or
        ``"blocking"`` (bulk-synchronous ABM reference).  Both produce
        bit-identical physics.
    prefetch:
        Enable the locally-essential-tree prefetch before the walk
        (``"async"`` schedule only).
    prefetch_rounds:
        Maximum prefetch waves (each wave descends one tree level along
        the domain boundary).
    cache_capacity:
        Entry bound of the remote-cell :class:`CellCache`; ``None`` is
        unbounded.  Must comfortably exceed a round's working set or
        eviction thrash will stretch (never corrupt) the traversal.
    """

    theta: float = 0.6
    eps: float = 0.05
    G: float = 1.0
    bucket_size: int = 32
    oversample: int = 16
    kernel_efficiency: float = 0.25  # fraction of peak the inner loop sustains
    max_rounds: int = 200
    #: Kernel backend name (``None`` -> ``$REPRO_BACKEND``/numpy).
    backend: str | None = None
    eval: str = "batched"
    comm: str = "async"
    prefetch: bool = True
    prefetch_rounds: int = 8
    cache_capacity: int | None = None

    def __post_init__(self) -> None:
        OpeningAngleMAC(self.theta)  # the MAC owns the rule for theta
        if not (math.isfinite(self.eps) and self.eps >= 0):
            raise ValueError(f"eps must be finite and >= 0, got {self.eps}")
        if not math.isfinite(self.G):
            raise ValueError(f"G must be finite, got {self.G}")
        for name in ("bucket_size", "oversample", "max_rounds"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 < self.kernel_efficiency <= 1:
            raise ValueError("kernel_efficiency must be in (0, 1]")
        if self.eval not in ("batched", "pergroup"):
            raise ValueError("eval must be 'batched' or 'pergroup'")
        if self.comm not in ("async", "blocking"):
            raise ValueError("comm must be 'async' or 'blocking'")
        if self.prefetch_rounds < 0:
            raise ValueError("prefetch_rounds must be >= 0")
        if self.cache_capacity is not None and self.cache_capacity < 1:
            raise ValueError("cache_capacity must be positive or None")
        if self.backend is not None:
            get_backend(self.backend)  # fail fast on unknown names


@dataclass
class ParallelGravityResult:
    """Assembled output of a parallel force calculation."""

    accelerations: np.ndarray
    potentials: np.ndarray
    counts: InteractionCounts
    sim: SimResult
    #: Restart bookkeeping when the run executed under a fault plan.
    resilience: "ResilientResult | None" = None
    #: Aggregated communication-layer statistics (requests, batches,
    #: rounds, cache hit/miss/eviction counters, prefetch accuracy),
    #: summed over ranks.
    comm: dict[str, float] = field(default_factory=dict)

    @property
    def mflops_per_proc(self) -> float:
        """Achieved Mflop/s per processor in virtual time (Table 6's metric)."""
        p = len(self.sim.clocks)
        if self.sim.elapsed == 0:
            return 0.0
        return self.counts.flops / (p * self.sim.elapsed) / 1e6


@dataclass
class ParallelRunResult:
    """Assembled output of a multi-timestep parallel N-body run."""

    #: Final particle state, in input order.
    positions: np.ndarray
    velocities: np.ndarray
    #: Accelerations of the last force evaluation, in input order.
    accelerations: np.ndarray
    #: Per-step accelerations (one ``(N, 3)`` array per step, input order).
    step_accelerations: list[np.ndarray]
    #: Interaction totals summed over all steps.
    counts: InteractionCounts
    sim: SimResult
    #: Aggregated communication statistics, summed over ranks and steps.
    comm: dict[str, float] = field(default_factory=dict)
    #: Per-step work imbalance: max over ranks of measured interaction
    #: work divided by the mean (1.0 is perfect balance).
    work_imbalance: list[float] = field(default_factory=list)


def _rec_to_wire(rec: CellRecord) -> tuple:
    return (
        rec.key,
        rec.count,
        rec.mass,
        rec.com,
        rec.quad,
        rec.bmax,
        rec.is_leaf,
        tuple(rec.children),
        rec.positions,
        rec.masses,
    )


def _rec_from_wire(w: tuple) -> CellRecord:
    return CellRecord(
        key=w[0], count=w[1], mass=w[2], com=w[3], quad=w[4], bmax=w[5],
        is_leaf=w[6], children=tuple(w[7]), positions=w[8], masses=w[9],
    )


def _frame_from_wires(
    all_wires: list, memo: dict
) -> tuple[dict[int, int], dict[int, CellRecord]]:
    """Owners map + aggregated frame for one allgathered wire set.

    On a real machine every rank assembles the frame from its own copy
    of the allgathered branch cells.  In the one-process simulation the
    engine hands every rank references to the *same* per-owner batch
    objects, and the frame is a pure function of them — so it is
    computed once and shared.  Safe because both returned structures
    are read-only after construction (the traversal only looks cells
    up), and it turns an O(P) replicated build into O(1) per rank —
    the difference between minutes and hours at P = 2560.

    ``memo`` is the one-slot, identity-keyed memo the program builder
    owns, so it dies with the run.  It keeps a strong reference to its
    wire batches, so the cached ids cannot be recycled by new objects.
    One slot is enough: the allgather that produces the next wire set
    completes only after every rank has entered it, i.e. after every
    rank has already looked this one up.
    """
    memo_key = tuple(map(id, all_wires))
    if memo.get("key") != memo_key:
        owners: dict[int, int] = {}
        branch_records: list[CellRecord] = []
        for owner_rank, batch in enumerate(all_wires):
            for w in batch:
                rec = _rec_from_wire(w)
                owners[rec.key] = owner_rank
                branch_records.append(rec)
        memo.update(key=memo_key, wires=list(all_wires), owners=owners,
                    frame=_build_frame(branch_records))
    return memo["owners"], memo["frame"]


def _build_frame(branch_records: list[CellRecord]) -> dict[int, CellRecord]:
    """Aggregate branch cells upward to the root; returns key -> record.

    Branch keys themselves are included; their ``children`` stay empty
    here because their subtrees live on their owners (descending into
    a branch is what triggers a remote request).
    """
    frame: dict[int, CellRecord] = {r.key: r for r in branch_records}
    if not branch_records:
        raise ValueError("no branch records; empty simulation?")
    # Aggregate level by level from the deepest branch upward.
    current = {r.key: r for r in branch_records}
    while True:
        deepest = max(key_level(k) for k in current)
        if deepest == 0:
            break
        parents: dict[int, list[CellRecord]] = {}
        next_current: dict[int, CellRecord] = {}
        for k, rec in current.items():
            lvl = key_level(k)
            if lvl == deepest:
                parents.setdefault(k >> 3, []).append(rec)
            else:
                next_current[k] = rec
        for pk, kids in parents.items():
            if pk in next_current:
                # A shallower branch sharing this key cannot happen
                # (branch intervals are disjoint), but guard anyway.
                kids.append(next_current[pk])
            merged = combine_records(pk, kids)
            frame[pk] = merged
            next_current[pk] = merged
        current = next_current
    if ROOT_KEY not in frame:
        raise RuntimeError("frame aggregation failed to reach the root")
    return frame


class _GroupWalk:
    """One sink group's traversal state (the deferral-queue entry)."""

    __slots__ = ("key", "start", "stop", "com", "bmax", "frontier", "waiting", "cells", "direct")

    def __init__(self, key: int, start: int, stop: int, positions: np.ndarray):
        self.key = key
        self.start = start
        self.stop = stop
        sinks = positions[start:stop]
        self.com = sinks.mean(axis=0)
        self.bmax = float(np.linalg.norm(sinks - self.com, axis=1).max())
        self.frontier: list[int] = [ROOT_KEY]
        self.waiting: list[int] = []
        self.cells: list[CellRecord] = []
        self.direct: list[CellRecord] = []

    def advance(self, resolve, mac) -> int:
        """Walk until the frontier drains; returns the MAC tests made.

        ``resolve(key)`` returns a CellRecord or None (non-local miss);
        missed keys are left in ``waiting`` and retried on the next
        advance (after a request round fills the cache).
        """
        mac_tests = 0
        self.frontier.extend(self.waiting)
        self.waiting = []
        while self.frontier:
            batch = self.frontier
            self.frontier = []
            records: list[CellRecord] = []
            for key in batch:
                rec = resolve(key)
                if rec is None:
                    self.waiting.append(key)
                elif rec.count > 0:
                    records.append(rec)
            if not records:
                continue
            # One vectorized MAC pass per frontier batch (same float
            # semantics as the serial batched traversal's einsum form;
            # per-record np.linalg.norm here used to dominate the whole
            # parallel run's wall-clock).
            d = np.array([r.com for r in records]) - self.com
            dist = np.sqrt(np.einsum("ij,ij->i", d, d))
            bmaxes = np.array([r.bmax for r in records])
            masses = np.array([r.mass for r in records])
            ok = mac.accept(dist, bmaxes, self.bmax, masses)
            mac_tests += len(records)
            cells, direct, frontier, waiting = (
                self.cells, self.direct, self.frontier, self.waiting
            )
            for rec, accept in zip(records, ok):
                if accept and rec.key != self.key:
                    cells.append(rec)
                elif rec.is_leaf and rec.positions is not None:
                    direct.append(rec)
                elif not rec.is_leaf and rec.children:
                    frontier.extend(rec.children)
                else:
                    # A remote branch known only by its multipole: the
                    # MAC wants to open it, so its real record (children
                    # or particles) must be fetched — park on it.
                    waiting.append(rec.key)
        return mac_tests

    def cell_sources(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(com, mass, quad) of the accepted cells, in key order — the
        order that fixes the evaluation's float sums."""
        self.cells.sort(key=attrgetter("key"))
        return (np.array([r.com for r in self.cells]),
                np.array([r.mass for r in self.cells]),
                np.array([r.quad for r in self.cells]))

    def direct_sources(self) -> tuple[np.ndarray, np.ndarray]:
        """(positions, masses) of the opened leaves' particles, in key order."""
        self.direct.sort(key=attrgetter("key"))
        return (np.concatenate([r.positions for r in self.direct]),
                np.concatenate([r.masses for r in self.direct]))


def _csr(runs: list[tuple[int, int, int]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sink starts, sink counts, source offsets) of a list of
    ``(first sink row, sink count, source count)`` rectangles."""
    starts, lengths, widths = np.array(list(zip(*runs)), dtype=np.int64)
    offs = np.zeros(len(runs) + 1, dtype=np.int64)
    np.cumsum(widths, out=offs[1:])
    return starts, lengths, offs


class _Traversal:
    """One rank's tree traversal + force evaluation over one particle set.

    Construction sets up the per-rank state once (cell lookup, cache
    admission, owner lookup, counters, one walk per sink group);
    :meth:`run` is the generator a rank program delegates to.  It
    returns ``(acc, pot, counts, work, stats)`` where ``work`` is the
    measured per-particle interaction flops (the weight the next step's
    incremental rebalancing consumes) and ``stats`` the rank-local
    communication counters.

    The interaction list of every sink group is a pure function of the
    global tree and the group geometry, and evaluation order within a
    group is fixed by sorting records on key — so the ``"async"`` and
    ``"blocking"`` schedules (and any cache state) produce bit-identical
    ``acc``/``pot``/``counts``.
    """

    def __init__(
        self,
        comm,
        config: ParallelConfig,
        kb,
        server: CellServer,
        frame: dict[int, CellRecord],
        owners: dict[int, int],
        branch_keys_mine: list[int],
        splitters: list[int],
        pos: np.ndarray,
        mass: np.ndarray,
        cache: CellCache,
        branch_fps: dict[int, bytes] | None,
    ):
        self.comm = comm
        self.config = config
        self.kb = kb
        self.server = server
        self.frame = frame
        self.owners = owners
        self.splitters = splitters
        self.pos = pos
        self.mass = mass
        self.cache = cache
        self.branch_fps = branch_fps or {}
        self.mac = OpeningAngleMAC(config.theta)
        self.eps2 = config.eps * config.eps
        # Covering-branch lookup, for stamping cache entries with the
        # branch whose fingerprint governs their cross-step validity.
        self.branch_keys = sorted(owners, key=lambda k: key_interval(k)[0])
        self.branch_los = [key_interval(k)[0] for k in self.branch_keys]
        self.prefetched: set[int] = set()
        self.stats: dict[str, float] = {
            "rounds": 0, "requests": 0, "batches": 0,
            "prefetch_rounds": 0, "prefetch_fetched": 0, "prefetch_used": 0,
        }
        n_owned = pos.shape[0]
        self.acc = np.zeros((n_owned, 3))
        self.pot = np.zeros(n_owned)
        self.work = np.zeros(n_owned)
        self.pos3 = np.ascontiguousarray(pos.T) if n_owned else np.zeros((3, 0))
        self.counts = InteractionCounts()
        self.walks = [
            _GroupWalk(k, s, e, pos) for (k, s, e) in server.leaf_groups(branch_keys_mine)
        ]
        self.resolve = self._make_resolve()

    def _make_resolve(self):
        """The walks' cell lookup: the hot inner call, so a plain closure
        over locals rather than a method reading attributes."""
        server, frame, owners, cache = self.server, self.frame, self.owners, self.cache
        stats, prefetched, rank = self.stats, self.prefetched, self.comm.rank
        my_lo, my_hi = self.splitters[rank], self.splitters[rank + 1]
        local_records: dict[int, CellRecord] = {}
        # Step-local alias of remote-cache hits, valid only while the cache
        # cannot evict (unbounded).  A memo hit logs the same cache hit a
        # direct ask would, so hit/miss counters — which benches gate on —
        # are unchanged; only the OrderedDict/LRU bookkeeping is skipped.
        remote_memo: dict[int, CellRecord] = {}
        memo_remote = cache.capacity is None

        def resolve(key: int) -> CellRecord | None:
            rec = local_records.get(key)
            if rec is not None:
                return rec
            rec = remote_memo.get(key)
            if rec is not None:
                cache.stats["hits"] += 1
                return rec
            ilo, ihi = key_interval(key)
            if my_lo <= ilo and ihi <= my_hi:
                rec = server.record(key)
                local_records[key] = rec
                return rec
            if key in frame and key not in owners:
                rec = frame[key]  # shared top: aggregated locally
                local_records[key] = rec  # memoize: every walk re-asks
                return rec
            rec = cache.get(key)
            if rec is not None:
                if memo_remote:
                    remote_memo[key] = rec
                if key in prefetched:
                    stats["prefetch_used"] += 1
                    prefetched.discard(key)
                return rec
            if key in frame and owners.get(key) == rank:
                rec = server.record(key)
                local_records[key] = rec
                return rec
            if key in frame:
                # Remote branch: its multipole is known from the
                # allgather; if the MAC opens it, the walk will park on
                # it and its real record arrives by request into the cache.
                return frame[key]
            return None

        return resolve

    # -- remote cells: who owns a key, serving, requesting, admitting -----
    def owner_of(self, key: int) -> int:
        ilo, _ = key_interval(key)
        return min(bisect.bisect_right(self.splitters, ilo) - 1, self.comm.size - 1)

    def serve_batch(self, requester: int, items: list[Any]) -> list[Any]:
        with _wall_bucket("serialization"):
            return [_rec_to_wire(self.server.record(int(k))) for k in items]

    def request_lists(self, keys: set[int]) -> list[list[int]]:
        """One sorted request batch per owner for the deduplicated
        ``keys``, counted into the request/batch statistics."""
        need: dict[int, list[int]] = {}
        for k in keys:
            need.setdefault(self.owner_of(k), []).append(k)
        reqs: list[list[int]] = [[] for _ in range(self.comm.size)]
        for owner, ks in need.items():
            reqs[owner] = sorted(ks)
        self.stats["requests"] += len(keys)
        self.stats["batches"] += len(need)
        return reqs

    def admit(self, replies: list) -> list[CellRecord]:
        """Insert every replied wire record into the cache, stamped with
        its covering branch's fingerprint; returns the records."""
        admitted = []
        for batch in replies:
            for w in batch or ():
                rec = _rec_from_wire(w)
                ilo, _ = key_interval(rec.key)
                i = bisect.bisect_right(self.branch_los, ilo) - 1
                bkey = self.branch_keys[max(i, 0)]
                self.cache.insert(rec.key, rec, branch_key=bkey,
                                  fingerprint=self.branch_fps.get(bkey, b""))
                admitted.append(rec)
        return admitted

    def charge(self, label: str, flops: float, mem_bytes: float = 0.0):
        """One labeled compute span at the kernel efficiency."""
        return self.comm.compute(
            flops=flops, mem_bytes=mem_bytes,
            flop_efficiency=self.config.kernel_efficiency, label=label,
        )

    # -- force evaluation of completed walks ---------------------------------
    def tally(self, walk: _GroupWalk, n_cells: int, n_direct: int) -> tuple[float, float]:
        """Book one completed walk against ``n_cells`` cell and
        ``n_direct`` particle sources: interaction counts, per-particle
        work, and the potential's self-energy correction.  Returns the
        (flops, bytes) to charge the cost model."""
        ns = walk.stop - walk.start
        own = slice(walk.start, walk.stop)
        self.counts.groups += 1
        self.counts.p2c += ns * n_cells
        self.counts.p2p += ns * n_direct
        per_sink = n_cells * FLOPS_PER_CELL_INTERACTION + n_direct * FLOPS_PER_INTERACTION
        self.work[own] += per_sink
        if n_direct and self.eps2 > 0:
            # The direct kernels include each sink's softened self-pair;
            # remove the self-energy -G m / eps it adds to the potential.
            self.pot[own] += self.config.G * self.mass[own] / self.config.eps
        return ns * per_sink, ns * (n_cells * 80.0 + n_direct * 32.0)

    def evaluate_pergroup(self, ready: list[_GroupWalk]) -> tuple[float, float]:
        """The historical one-dense-call-per-group evaluator, kept as the
        differential reference for :meth:`evaluate_batch`."""
        kb, eps2, G = self.kb, self.eps2, self.config.G
        flops = mem = 0.0
        for walk in ready:
            own = slice(walk.start, walk.stop)
            sinks = self.pos[own]
            n_direct = 0
            if walk.cells:
                a, p = kb.eval_cells_dense(sinks, *walk.cell_sources(), eps2, G)
                self.acc[own] += a
                self.pot[own] += p
            if walk.direct:
                src_pos, src_mass = walk.direct_sources()
                n_direct = src_pos.shape[0]
                a, p = kb.eval_direct_dense(sinks, src_pos, src_mass, eps2, G)
                self.acc[own] += a
                self.pot[own] += p
            f, m = self.tally(walk, len(walk.cells), n_direct)
            flops += f
            mem += m
        return flops, mem

    def evaluate_batch(self, ready: list[_GroupWalk]) -> tuple[float, float]:
        """Evaluate a batch of completed walks as flat CSR rectangles:
        one cell and one direct kernel call for the whole batch.

        A rectangle's per-sink result is independent of the batch it is
        evaluated in (backend contract), and each sink group completes
        in exactly one batch, so accelerations stay bit-identical across
        comm schedules, cache states, and round boundaries — the same
        invariant the per-group path has.
        """
        flops = mem = 0.0
        # One (first sink row, sink count, source count) run per rectangle.
        cell_runs: list[tuple[int, int, int]] = []
        direct_runs: list[tuple[int, int, int]] = []
        cell_parts: list[tuple] = []
        direct_parts: list[tuple] = []
        for walk in ready:
            ns = walk.stop - walk.start
            n_direct = 0
            if walk.cells:
                cell_parts.append(walk.cell_sources())
                cell_runs.append((walk.start, ns, len(walk.cells)))
            if walk.direct:
                direct_parts.append(walk.direct_sources())
                n_direct = direct_parts[-1][0].shape[0]
                direct_runs.append((walk.start, ns, n_direct))
            f, m = self.tally(walk, len(walk.cells), n_direct)
            flops += f
            mem += m
        tail = (self.eps2, self.config.G, self.acc, self.pot, DEFAULT_PAIR_CHUNK)
        if cell_parts:
            com, cmass, quad = (np.concatenate(part) for part in zip(*cell_parts))
            starts, lengths, offs = _csr(cell_runs)
            self.kb.eval_cell_rects(
                self.pos3, starts, lengths, offs, np.arange(offs[-1], dtype=np.int64),
                np.ascontiguousarray(com.T), np.ascontiguousarray(cmass),
                np.ascontiguousarray(quad.T), *tail,
            )
        if direct_parts:
            src_pos, src_mass = (np.concatenate(part) for part in zip(*direct_parts))
            starts, lengths, offs = _csr(direct_runs)
            # Sources live after the rank's own particles in the pool;
            # sink rows stay < n_owned, so writes into acc/pot are safe.
            src_ids = self.pos.shape[0] + np.arange(offs[-1], dtype=np.int64)
            self.kb.eval_direct_rects(
                np.ascontiguousarray(np.concatenate([self.pos, src_pos]).T),
                np.concatenate([self.mass, src_mass]),
                starts, lengths, offs, src_ids, *tail,
            )
        return flops, mem

    def evaluate_many(self, ready: list[_GroupWalk]):
        """Generator charging one labeled compute span for a batch of
        completed walks — the overlap work of an async round."""
        evaluate = self.evaluate_batch if self.config.eval == "batched" else self.evaluate_pergroup
        flops, mem = evaluate(ready)
        if flops:
            yield self.charge("force", flops, mem)

    # -- schedules -----------------------------------------------------------
    def advance_round(self, pending: list[_GroupWalk]):
        """Advance every pending walk as far as local data allows and
        charge the MAC tests; returns ``(still, ready)`` — the walks now
        parked on missing keys (their ``waiting`` lists) and the walks
        that completed."""
        still: list[_GroupWalk] = []
        ready: list[_GroupWalk] = []
        mac_tests = 0
        resolve, mac = self.resolve, self.mac
        for walk in pending:
            mac_tests += walk.advance(resolve, mac)
            (still if walk.waiting else ready).append(walk)
        if mac_tests:
            yield self.charge("traversal", mac_tests * FLOPS_PER_MAC_TEST)
        return still, ready

    def prefetch_boundary(self):
        """Locally-essential-tree prefetch (async schedule only).

        MAC-tests remote cells against the *whole local domain* —
        modeled as the bounding sphere of this rank's particles — and
        bulk-fetches, one tree level per wave, every cell some local
        group might open.  A cell at distance ``d`` from the domain
        center can only be opened by a local group if
        ``d - R <= bmax / theta`` (the domain sphere contains every
        group sphere), so cells failing that test are skipped.  The
        test is conservative per *domain* but heuristic per *group*:
        anything it misses is fetched by the main loop, so accuracy
        affects only timing, never results.
        """
        comm, cache, stats, pos = self.comm, self.cache, self.stats, self.pos
        if pos.shape[0]:
            center = pos.mean(axis=0)
            radius = float(np.linalg.norm(pos - center, axis=1).max())
        else:
            center = np.zeros(3)
            radius = 0.0
        inv_theta = 1.0 / self.config.theta
        frontier = [self.frame[k] for k in self.branch_keys if self.owners[k] != comm.rank]
        for wave in range(1, self.config.prefetch_rounds + 1):
            want: set[int] = set()
            tests = 0
            next_frontier: list[CellRecord] = []
            for rec in frontier:
                if rec.count == 0:
                    continue
                tests += 1
                dist = float(np.linalg.norm(rec.com - center))
                if dist - radius > rec.bmax * inv_theta:
                    continue  # every local group's MAC accepts it
                if rec.is_leaf:
                    if rec.positions is None and cache.peek(rec.key) is None:
                        want.add(rec.key)
                    continue
                for ck in rec.children:
                    crec = cache.peek(ck)
                    if crec is not None:
                        next_frontier.append(crec)
                    else:
                        want.add(ck)
            if tests:
                yield self.charge("prefetch", tests * FLOPS_PER_MAC_TEST)
            total = yield from mpi_patterns.allreduce(comm, len(want))
            if total == 0:
                break
            replies, _ = yield from batched_request_reply(
                comm, self.request_lists(want), self.serve_batch, tag=_FETCH_TAG + 10
            )
            fetched = self.admit(replies)
            self.prefetched.update(rec.key for rec in fetched)
            stats["prefetch_fetched"] += len(fetched)
            frontier = next_frontier + fetched
            stats["prefetch_rounds"] = wave

    def traverse_async(self):
        """Latency-hiding main loop: per-owner deduplicated request
        batches in flight while completed walks evaluate their forces."""
        pending = self.walks
        for rounds in range(1, self.config.max_rounds + 2):
            pending, ready = yield from self.advance_round(pending)
            blocked = yield from mpi_patterns.allreduce(self.comm, len(pending))
            if blocked == 0:
                yield from self.evaluate_many(ready)
                return
            missing = {k for walk in pending for k in walk.waiting}
            replies, _ = yield from batched_request_reply(
                self.comm, self.request_lists(missing), self.serve_batch,
                overlap=self.evaluate_many(ready), tag=_FETCH_TAG,
            )
            self.admit(replies)
            self.stats["rounds"] = rounds
        raise RuntimeError("traversal did not converge; request round limit hit")

    def traverse_blocking(self):
        """Bulk-synchronous ABM reference: alltoall request/reply rounds
        with all force evaluation after the exchange (the pre-PR-5
        schedule, kept for differential testing)."""
        abm = ABMChannel(self.comm, self.serve_batch)
        pending = self.walks
        for _ in range(self.config.max_rounds + 1):
            pending, ready = yield from self.advance_round(pending)
            for walk in pending:
                # Per walk, not deduplicated across walks: the reference
                # sends what the pre-PR-5 code sent, byte for byte.
                for k in set(walk.waiting):
                    abm.request(self.owner_of(k), k)
            yield from self.evaluate_many(ready)
            done = yield from abm.globally_done(len(pending))
            if done:
                self.stats["rounds"] = abm.rounds
                self.stats["requests"] = abm.requests_sent
                return
            self.admit((yield from abm.exchange()))
        raise RuntimeError("traversal did not converge; ABM round limit hit")

    def run(self):
        if self.config.comm == "async":
            if self.config.prefetch and self.comm.size > 1:
                yield from self.prefetch_boundary()
            yield from self.traverse_async()
        else:
            yield from self.traverse_blocking()
        return self.acc, self.pot, self.counts, self.work, self.stats


def _sort_cost(comm, n: int, label: str):
    """Modeled cost of sorting ``n`` keyed particles."""
    return comm.compute(flops=30.0 * n * max(np.log2(max(n, 2)), 1.0),
                        mem_bytes=48.0 * n, label=label)


def _bounding_box(comm, cols: dict[str, np.ndarray], n_steps: int, dt: float):
    """Global bounding box by reduction, fixed for the whole run.

    Keys from different steps must live in one namespace (the cache is
    keyed by them), so when the particles can move the box is padded
    for the expected drift.  A particle escaping the padded box raises
    from key assignment — enlarge the pad via shorter runs or smaller
    dt rather than silently re-keying.
    """
    pos = cols["pos"]
    n_local = pos.shape[0]
    lo = pos.min(axis=0) if n_local else np.full(3, np.inf)
    hi = pos.max(axis=0) if n_local else np.full(3, -np.inf)
    glo = yield from mpi_patterns.allreduce(comm, lo, op=MPI_MIN)
    ghi = yield from mpi_patterns.allreduce(comm, hi, op=MPI_MAX)
    span = float((ghi - glo).max())
    span = span if span > 0 else 1.0
    if "vel" not in cols:
        return BoundingBox(glo - 1e-6 * span, span * (1.0 + 2e-6))
    vmax_l = float(np.linalg.norm(cols["vel"], axis=1).max()) if n_local else 0.0
    vmax = yield from mpi_patterns.allreduce(comm, vmax_l, op=MPI_MAX)
    pad = 2.0 * vmax * abs(dt) * n_steps + 0.125 * span
    return BoundingBox(glo - pad, span + 2.0 * pad)


def _key_and_sort(comm, cols: dict[str, np.ndarray], box: BoundingBox):
    """Step 1: key this rank's particles in ``box`` and sort every
    column along the curve.  Returns the columns, ``keys`` first."""
    pos = cols["pos"]
    n_local = pos.shape[0]
    keys = keys_from_positions(pos, box) if n_local else np.empty(0, dtype=np.uint64)
    names = [name for name in cols if name != "keys"]
    columns = key_sort(keys, *(cols[name] for name in names))
    yield _sort_cost(comm, n_local, "key-sort")
    return dict(zip(("keys", *names), columns))


def _exchange(comm, cols: dict[str, np.ndarray], splitters: list[int]):
    """Step 2: alltoall every particle to the rank owning its key, then
    restore key order.  ``cols`` must be sorted by key."""
    size = comm.size
    bounds = piece_bounds(cols["keys"], splitters)
    sendbuf = [
        {name: a[bounds[d]:bounds[d + 1]] for name, a in cols.items()} for d in range(size)
    ]
    received = yield comm.alltoall(
        sendbuf, nbytes=sum(a.nbytes for a in cols.values()) + 8 * (len(cols) + 1) * size
    )
    names = list(cols)
    columns = key_sort(*(np.concatenate([r[name] for r in received]) for name in names))
    yield _sort_cost(comm, columns[0].shape[0], "exchange-sort")
    return dict(zip(names, columns))


def _global_tree(comm, config: ParallelConfig, cols, box, splitters, frame_memo: dict):
    """Steps 3–4: this rank's :class:`CellServer` and branch cells, then
    the allgather that gives every rank the shared frame.

    Returns ``(server, my branch keys, owners, frame, branch_fps)``;
    ``branch_fps`` (branch key -> data fingerprint, the cache's validity
    stamps) is gathered only when the particles can move, else ``None``.
    """
    rank = comm.rank
    n_owned = cols["keys"].shape[0]
    server = CellServer(cols["keys"], cols["pos"], cols["mass"], box,
                        bucket_size=config.bucket_size)
    my_lo, my_hi = splitters[rank], splitters[rank + 1]
    branches = []
    if my_hi > my_lo:
        for bk in cover_interval(my_lo, my_hi):
            rec = server.record(bk, with_particles=False)
            if rec.count > 0:
                branches.append(rec)
    yield comm.compute(flops=120.0 * n_owned, mem_bytes=96.0 * n_owned, label="tree-build")
    all_wires = yield from mpi_patterns.allgather(comm, [_rec_to_wire(b) for b in branches])
    branch_fps = None
    if "vel" in cols:
        fps_mine = [(b.key, server.branch_fingerprint(b.key)) for b in branches]
        all_fps = yield from mpi_patterns.allgather(comm, fps_mine)
        branch_fps = {k: fp for batch in all_fps for (k, fp) in batch}
    owners, frame = _frame_from_wires(all_wires, frame_memo)
    return server, [b.key for b in branches], owners, frame, branch_fps


def _make_program(
    chunks: list[dict[str, np.ndarray]],
    config: ParallelConfig,
    n_steps: int = 1,
    dt: float = 0.0,
    cache_across_steps: bool = True,
    rebalance: bool = True,
    ckpt: "Checkpointer | None" = None,
):
    """Build the SPMD rank program closure over the scattered input.

    One SimMPI program covers all steps, so the remote-cell cache, the
    splitters, and the virtual clocks persist across timesteps — the
    regime the HOT cache and incremental rebalancing were built for.
    Chunks without a ``vel`` column cannot move: the program then is
    the single force evaluation (see the module docstring).

    With a checkpointer, the program dumps its post-exchange particle
    state (the recovery point) and, when handed a restored snapshot,
    skips straight past decomposition to the traversal.
    """
    frame_memo: dict = {}

    def program(comm):
        rank, size = comm.rank, comm.size
        kb = get_backend(config.backend)
        cols = chunks[rank]
        snap = ckpt.restored(rank) if ckpt is not None else None
        if snap is not None:
            # -- restart: resume from the committed checkpoint ------------
            cols = {name: snap[name] for name in ("keys", *cols)}
            splitters = [int(s) for s in snap.meta["splitters"]]
            box = BoundingBox(np.asarray(snap.meta["box_corner"]), snap.meta["box_size"])
            # Reading the dump back from local disk costs real time.
            nbytes = sum(a.nbytes for a in cols.values())
            yield comm.elapse(ckpt.dump_time_s(nbytes), label="checkpoint-restore")
        else:
            # -- initial decomposition: sample sort + exchange ------------
            box = yield from _bounding_box(comm, cols, n_steps, dt)
            cols = yield from _key_and_sort(comm, cols, box)
            sample = sample_splitters(cols["keys"], size, config.oversample)
            splitters = pick_splitters((yield from mpi_patterns.allgather(comm, sample)), size)
            cols = yield from _exchange(comm, cols, splitters)
            if ckpt is not None:
                # The decomposition is the state worth protecting: dump
                # it the moment it exists (gated by the configured
                # interval), so a crash only ever repeats the traversal.
                yield from ckpt.save(
                    comm,
                    cols,
                    meta={
                        "phase": "post-exchange",
                        "splitters": [int(s) for s in splitters],
                        "box_corner": box.corner.tolist(),
                        "box_size": box.size,
                    },
                )

        remote_cache = CellCache(config.cache_capacity)
        counts_total = InteractionCounts()
        stats_total: dict[str, float] = {}
        step_outs: list[dict[str, np.ndarray]] = []
        step_work: list[float] = []
        for step in range(n_steps):
            server, branch_keys_mine, owners, frame, branch_fps = yield from _global_tree(
                comm, config, cols, box, splitters, frame_memo)
            if branch_fps is not None:
                # -- step 5: cache carry-over ------------------------------
                if cache_across_steps:
                    remote_cache.retain_valid(branch_fps)
                else:
                    remote_cache.clear()
            acc, pot, counts, work, stats = yield from _Traversal(
                comm, config, kb, server, frame, owners, branch_keys_mine, splitters,
                cols["pos"], cols["mass"], remote_cache, branch_fps,
            ).run()
            counts_total = counts_total.merged(counts)
            for k, v in stats.items():
                stats_total[k] = stats_total.get(k, 0.0) + float(v)
            step_outs.append({"ids": cols["ids"], "acc": acc, "pot": pot})
            step_work.append(float(work.sum()))
            if "vel" not in cols:
                break  # nothing can move: one force evaluation is the run

            # -- kick + drift (symplectic Euler) --------------------------
            n_owned = cols["keys"].shape[0]
            cols["vel"] = cols["vel"] + acc * dt
            cols["pos"] = cols["pos"] + cols["vel"] * dt
            yield comm.compute(flops=12.0 * n_owned, mem_bytes=96.0 * n_owned,
                               label="integrate")
            if step == n_steps - 1:
                break

            # -- incremental work-weighted rebalancing --------------------
            # Uses the interaction work just measured, while keys are
            # still the pre-drift ones the work was measured against.
            if rebalance and size > 1:
                totals = yield from mpi_patterns.allgather(comm, float(work.sum()))
                props = splitter_candidates(cols["keys"], work, float(sum(totals[:rank])),
                                            float(sum(totals)), size)
                all_props = yield from mpi_patterns.allgather(comm, props)
                splitters = merge_splitter_candidates(splitters, list(all_props))

            # -- re-key (fixed box) and migrate to owners -----------------
            cols = yield from _key_and_sort(comm, cols, box)
            cols = yield from _exchange(comm, cols, splitters)

        for k, v in remote_cache.snapshot_stats().items():
            stats_total[f"cache_{k}"] = v
        return {
            "ids": cols["ids"],
            "pos": cols["pos"],
            "vel": cols.get("vel"),
            "steps": step_outs,
            "counts": (counts_total.p2p, counts_total.p2c, counts_total.groups),
            "comm": stats_total,
            "step_work": step_work,
        }

    return program


def _scatter_input(positions, masses, velocities, n_ranks: int, n_steps: int = 1,
                   dt: float = 0.0) -> tuple[int, list[dict[str, np.ndarray]]]:
    """Validate an entry point's arguments and scatter the particles
    block-wise; returns ``(N, chunks)``, one column dict per rank.

    Every refusal is a ``ValueError`` naming the argument, raised before
    any rank starts.  ``velocities=None`` means the particles cannot
    move: the chunks then carry no ``vel`` column.
    """
    positions = np.ascontiguousarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise ValueError("positions must be (N, 3)")
    n = positions.shape[0]
    if n_ranks < 1:
        raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if not math.isfinite(dt):
        raise ValueError(f"dt must be finite, got {dt}")
    if n < n_ranks:
        raise ValueError(
            f"positions: need at least one particle per rank, got N={n} for n_ranks={n_ranks}")
    if masses is None:
        masses = np.full(n, 1.0 / n)
    masses = np.ascontiguousarray(masses, dtype=np.float64)
    if masses.shape != (n,):
        raise ValueError("masses must be (N,)")
    columns = {"pos": positions, "mass": masses}
    if velocities is not None:
        columns["vel"] = np.ascontiguousarray(velocities, dtype=np.float64)
        if columns["vel"].shape != (n, 3):
            raise ValueError("velocities must be (N, 3)")
    for arg, a in zip(("positions", "masses", "velocities"), columns.values()):
        if not np.isfinite(a).all():
            raise ValueError(f"{arg} must be finite")
    columns["ids"] = np.arange(n, dtype=np.int64)
    bounds = np.linspace(0, n, n_ranks + 1).astype(np.int64)
    return n, [
        {name: a[bounds[r]:bounds[r + 1]] for name, a in columns.items()}
        for r in range(n_ranks)
    ]


def _gather(
    sim: SimResult, n: int, observer: "Recorder | None"
) -> tuple[ParallelRunResult, np.ndarray]:
    """Assemble the per-rank returns of :func:`_make_program` in input
    order: the run result, plus the potentials of the last force
    evaluation.  Sums the ranks' ``comm`` stat dicts and optionally
    publishes them as ``treecode.comm.*`` counters on the observer."""
    n_steps = len(sim.returns[0]["steps"])
    pos = np.zeros((n, 3))
    vel = np.zeros((n, 3))
    pot = np.zeros(n)
    step_acc = [np.zeros((n, 3)) for _ in range(n_steps)]
    work = np.zeros((n_steps, len(sim.returns)))
    counts = InteractionCounts()
    comm_stats: dict[str, float] = {}
    for r, ret in enumerate(sim.returns):
        pos[ret["ids"]] = ret["pos"]
        if ret["vel"] is not None:
            vel[ret["ids"]] = ret["vel"]
        for s, out in enumerate(ret["steps"]):
            step_acc[s][out["ids"]] = out["acc"]
        pot[out["ids"]] = out["pot"]
        work[:, r] = ret["step_work"]
        counts = counts.merged(InteractionCounts(*ret["counts"]))
        for k, v in ret["comm"].items():
            comm_stats[k] = comm_stats.get(k, 0.0) + float(v)
    if observer is not None:
        for k, v in comm_stats.items():
            observer.count(f"treecode.comm.{k}", v)
    imbalance = [float(w.max() / w.mean()) if w.mean() > 0 else 1.0 for w in work]
    return ParallelRunResult(
        positions=pos,
        velocities=vel,
        accelerations=step_acc[-1],
        step_accelerations=step_acc,
        counts=counts,
        sim=sim,
        comm=comm_stats,
        work_imbalance=imbalance,
    ), pot


def parallel_tree_accelerations(
    positions: np.ndarray,
    masses: np.ndarray | None = None,
    *,
    n_ranks: int,
    config: ParallelConfig | None = None,
    cost: CostModel | None = None,
    faults: FaultPlan | None = None,
    resilience: "ResilienceConfig | None" = None,
    observer: "Recorder | None" = None,
    record_trace: bool = True,
    trace_sample: float = 1.0,
) -> ParallelGravityResult:
    """Run one parallel treecode force calculation on a simulated cluster.

    Parameters
    ----------
    positions:
        ``(N, 3)`` float64 particle positions (any length unit; the
        code is unit-agnostic, ``config.eps`` shares this unit).
    masses:
        ``(N,)`` masses; defaults to ``1/N`` each (total mass 1).
    n_ranks:
        Number of simulated processors; the input is scattered
        block-wise and the result gathered back into input order.
    config:
        :class:`ParallelConfig`; the default uses the latency-hiding
        ``"async"`` communication schedule.
    cost:
        Pass a :class:`~repro.simmpi.cost.SpaceSimulatorCost` (or any
        cost model) to obtain meaningful virtual timings; the default
        ``ZeroCost`` checks algorithm semantics only.
    faults, resilience:
        With ``faults`` (and optionally an explicit ``resilience``
        configuration) the run executes under the injected failure
        schedule: ranks checkpoint their post-exchange state, node
        crashes abort the job, and the restart loop resumes from the
        last committed epoch until the calculation completes.  The
        returned result then carries the
        :class:`~repro.resilience.runner.ResilientResult` bookkeeping,
        and its forces are bit-for-bit the fault-free ones.
    observer:
        A :class:`~repro.obs.Recorder` receiving spans from the engine
        plus aggregated ``treecode.comm.*`` counters.
    record_trace, trace_sample:
        Forwarded to the engine (fault-free path only): disable or
        decimate per-event trace retention so large-``n_ranks`` scaling
        runs keep their memory bounded.  Physics is unaffected.

    Invariants: for a fixed ``n_ranks`` the returned accelerations are
    bit-identical across ``config.comm`` schedules, cache capacities,
    and prefetch settings — communication strategy never touches the
    physics.  Different rank counts group sink particles differently,
    so results vary across ``n_ranks`` at the MAC-error scale (exactly
    as they do versus the serial treecode), never more.
    """
    config = config or ParallelConfig()
    n, chunks = _scatter_input(positions, masses, None, n_ranks)
    resilient: "ResilientResult | None" = None
    if faults is not None or resilience is not None:
        from ..resilience.runner import ResilienceConfig, run_resilient

        if resilience is None:
            resilience = ResilienceConfig(
                checkpoint_dir=tempfile.mkdtemp(prefix="ss-treecode-ckpt-")
            )
        resilient = run_resilient(
            lambda ckpt: _make_program(chunks, config, ckpt=ckpt),
            n_ranks,
            cost=cost,
            faults=faults,
            config=resilience,
            observer=observer,
        )
        sim = resilient.sim
    else:
        sim = run(_make_program(chunks, config), n_ranks, cost, observer=observer,
                  record_trace=record_trace, trace_sample=trace_sample)
    out, potentials = _gather(sim, n, observer)
    return ParallelGravityResult(out.accelerations, potentials, out.counts, sim,
                                 resilience=resilient, comm=out.comm)


def parallel_nbody_run(
    positions: np.ndarray,
    masses: np.ndarray | None = None,
    velocities: np.ndarray | None = None,
    *,
    n_ranks: int,
    n_steps: int,
    dt: float,
    config: ParallelConfig | None = None,
    cost: CostModel | None = None,
    observer: "Recorder | None" = None,
    cache_across_steps: bool = True,
    rebalance: bool = True,
    record_trace: bool = True,
    trace_sample: float = 1.0,
) -> ParallelRunResult:
    """Integrate an N-body system for ``n_steps`` kick–drift steps.

    The multi-timestep driver the latency-hiding layer was built for:
    one SimMPI run covers every step, so the remote-cell cache persists
    across steps (entries invalidated by branch fingerprint when an
    owner's subtree changes) and the domain boundaries are rebalanced
    *incrementally* from the interaction work measured in the previous
    step (``rebalance=True``) instead of re-running the sample sort.

    Parameters
    ----------
    positions, masses, velocities:
        ``(N, 3)`` positions, ``(N,)`` masses (default ``1/N``), and
        ``(N, 3)`` velocities (default zero), in a consistent unit
        system with ``config.G`` and ``dt``.
    n_ranks, n_steps, dt:
        Simulated processor count, number of steps, and timestep.  The
        key namespace's bounding box is fixed once, padded for the
        expected drift; particles escaping it raise a ``ValueError``.
    cache_across_steps:
        ``False`` clears the remote-cell cache at every step — the
        "cold" reference the cross-timestep consistency tests compare
        against.  Results are bit-identical either way.
    rebalance:
        ``False`` freezes the initial sample-sort splitters.

    Returns a :class:`ParallelRunResult`; ``step_accelerations`` holds
    every step's accelerations in input order, and ``work_imbalance``
    the measured per-step max/mean work ratio across ranks (the curve
    incremental rebalancing drives toward 1).
    """
    config = config or ParallelConfig()
    if velocities is None:
        velocities = np.zeros(np.shape(positions))
    n, chunks = _scatter_input(positions, masses, velocities, n_ranks, n_steps, dt)
    sim = run(
        _make_program(chunks, config, n_steps, dt, cache_across_steps, rebalance),
        n_ranks, cost, observer=observer,
        record_trace=record_trace, trace_sample=trace_sample,
    )
    return _gather(sim, n, observer)[0]
