"""The parallel hashed oct-tree N-body code, on SimMPI.

This module reassembles the full HOT pipeline of Section 4.2:

1. **Key assignment & parallel sort** — every rank keys its particles
   (global bounding box agreed by allreduce), samples splitter
   candidates, and the ranks agree on key-space splitters; an alltoall
   moves each particle to its owner.  This is the "domain decomposition
   … practically identical to a parallel sorting algorithm".
2. **Branch cells** — each rank computes the coarsest cells fully
   inside its key range (:func:`~repro.core.cellserver.cover_interval`;
   it builds only those that hold its particles,
   :func:`~repro.core.cellserver.occupied_cover`) and the ranks
   allgather those cells' multipoles; everyone assembles
   the shared top of the global tree ("frame") by parallel-axis
   aggregation.
3. **Traversal with deferral** — sink groups walk the global tree by
   key: through the shared top of the tree, which every rank reads
   where it is, and one hashed, columnar
   :class:`~repro.core.celltable.CellTable` per rank that holds its own
   cells and the ones it fetched.  All groups of a round descend
   together as one ``(group, row)`` frontier — the serial code's walk,
   :func:`repro.core.traversal.walk`, here over a table that can miss:
   a batched hash lookup resolves child keys and its miss mask catches
   the remote ones.
   Misses do not stall the walk: the group is parked on a software
   deferral queue and its key requests are *batched per destination*;
   other groups keep walking.  A reply names the requested cell
   records (with the particles of leaves) by their rows in the step's
   arena of every rank's own cells; the receiver copies a whole
   round's replies into the same table in one gather, and parked
   groups resume.
4. **Evaluation** — a batch of completed walks is charged to the
   rank's virtual clock at once and queued as a rectangle job
   (:class:`~repro.core.traversal.RectJob`: its lists and views of the
   rank's table).  No clock and no control flow reads a force before
   the rank returns it, so the queue is shared by every rank of the
   run, and a rank that finishes its traversal evaluates everything
   queued so far with the serial code's rectangle evaluator
   (:func:`repro.core.traversal.evaluate_rects`): one cell and one
   direct kernel call per :data:`~repro.core.traversal.JOIN_ROWS` rows
   of the queued jobs, bit for bit the sums of one call a job.

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
    communication.  Fetched cells stay resident across rounds (and,
    in the multi-step driver, timesteps): the table is the cache, an
    unbounded one, and its ``branch`` column the validity stamps.  A
    locally-essential-tree prefetch of up to
    :attr:`ParallelConfig.prefetch_rounds` waves (``0`` switches it off)
    MAC-tests the domain boundary to bulk-fetch likely-needed cells
    before the walk starts.

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
the Table 6 benchmark.  Wall time: under
:func:`repro.obs.wallclock.profile` the kernels are the
``gravity.kernel.cells`` / ``gravity.kernel.direct`` spans of the
queue's flushes (at small ranks, one flush carries every rank's jobs,
so the kernels cost one dispatch, not one a rank), a round's reply
gather is ``core.parallel.admit``, a rank's table set up for a step
is ``core.parallel.table``, and the rest of the rank program is the
engine's ``simmpi.engine``.

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
remote-cell cache across steps (the fetched rows of the previous step's
table, less those under a branch whose fingerprint changed) and
*incrementally* rebalancing the domain boundaries from the measured
per-particle interaction work of the previous step
(:func:`~repro.core.domain.splitter_candidates`) — the paper's
work-weighted decomposition fed by real measurements instead of uniform
weights.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass, field
from itertools import accumulate
from numbers import Real
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from ..obs import wallclock
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
from .backend import KernelBackend, get_backend
from .cellserver import CellServer, key_levels, key_spans, occupied_cover
from .celltable import (
    REMOTE, SILENT, STUB, CellBatch, CellRows, CellTable, KeyBatch, csr_take, row_dots,
    row_norms,
)
from .domain import (
    key_sort,
    merge_splitter_candidates,
    pick_splitters,
    piece_bounds,
    sample_splitters,
    splitter_candidates,
    splitter_cuts,
)
from .keys import MAX_LEVEL, ROOT_KEY, BoundingBox, keys_from_positions
from .mac import OpeningAngleMAC
from .traversal import (
    FLOPS_PER_CELL_INTERACTION,
    InteractionCounts,
    RectJob,
    csr_by_group,
    evaluate_rects,
    leaf_particles,
    walk,
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

#: Request rounds a traversal can need: one per tree level below the
#: root (derived in :meth:`_Traversal.traverse_async`).
_MAX_ROUNDS = MAX_LEVEL


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
    backend:
        Kernel backend instance (``None``: the shared numpy one).
    eval:
        Force-evaluation strategy for completed walks: ``"batched"``
        (default) turns every ready group's interaction list into flat
        CSR rectangles and queues them; the run's queue, every rank's
        rounds together, is evaluated by **one** cell and one direct
        kernel call (per ``JOIN_ROWS`` rows) before a rank returns its
        forces — the shape the numpy backend splits over threads when
        it is large; ``"pergroup"`` is the historical
        one-dense-call-per-group walker, evaluated at once, kept as the
        differential reference.  Both charge identical virtual time
        (same flop/byte totals) and agree to float tolerance.
    comm:
        Communication schedule for the traversal: ``"async"``
        (latency-hiding batched nonblocking messages, the default) or
        ``"blocking"`` (bulk-synchronous ABM reference).  Both produce
        bit-identical physics.
    prefetch_rounds:
        Maximum waves of the locally-essential-tree prefetch before the
        walk (``"async"`` schedule only; each wave descends one tree
        level along the domain boundary).  ``0`` switches it off.
    """

    theta: float = 0.6
    eps: float = 0.05
    G: float = 1.0
    bucket_size: int = 32
    oversample: int = 16
    kernel_efficiency: float = 0.25  # fraction of peak the inner loop sustains
    #: Kernel backend instance (``None``: the shared numpy one).
    backend: KernelBackend | None = None
    eval: str = "batched"
    comm: str = "async"
    prefetch_rounds: int = 8

    def __post_init__(self) -> None:
        OpeningAngleMAC(self.theta)  # the MAC owns the rule for theta
        if not (math.isfinite(self.eps) and self.eps >= 0):
            raise ValueError(f"eps must be finite and >= 0, got {self.eps}")
        if not math.isfinite(self.G):
            raise ValueError(f"G must be finite, got {self.G}")
        for name in ("bucket_size", "oversample", "prefetch_rounds"):
            value = getattr(self, name)
            if not hasattr(value, "__index__") or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("bucket_size", "oversample"):
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
        get_backend(self.backend)  # fail fast on a non-backend


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
    #: rounds, cache hit/miss/insert/invalidation counters, prefetch
    #: accuracy), summed over ranks.
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


class _Published:
    """One rank's own cells as the branch allgather publishes them: the
    whole batch, whose first ``n_branches`` rows are its branch cells.
    Only those travel, by multipole and child keys, so ``nbytes`` is
    theirs: the size of the particle-less :class:`CellBatch` of those
    rows."""

    __slots__ = ("cells", "n_branches", "nbytes")

    def __init__(self, cells: CellBatch, n_branches: int):
        self.cells, self.n_branches = cells, n_branches
        self.nbytes = 200 * n_branches + 16 * int(cells.cn[:n_branches].sum())


class _Frame:
    """The shared top of the global tree for one step: every rank's
    branch cells and the cells above them, as one read-only table.

    Branch cells are as their owners described them: multipole and
    child keys, but no particles and none of the cells below (descending
    into another rank's branch is what triggers a remote request).  The
    cells above are aggregated from them by parallel-axis shifts,
    deepest level first, with the arithmetic of
    :func:`~repro.core.cellserver.combine_records` — the per-cell spec —
    applied to a whole level's parents at once: child after child, each
    parent's children in the order the spec would have met them (a
    level's branch cells along the curve, then the cells aggregated in
    earlier passes in the order they were made), because float sums
    depend on it.

    On a real machine every rank assembles the frame from its own copy
    of the allgathered branch cells.  In the one-process simulation the
    engine hands every rank references to the *same* per-owner batches,
    and the frame is a pure function of them — so :func:`_shared_frame`
    builds it once, every rank's walks, force jobs and prefetch read its
    rows where they are, and a rank's table holds only what it owns and
    what it fetched: no per-rank copy of the tree top, the O(P) rows a
    rank would otherwise hold at P = 2560.  The frame is read-only: what
    is one rank's alone (its own branch cells, the copies it fetched)
    stays in its table, and a walk of the frame turns to it there
    (:meth:`_Traversal.walk_top`).

    The frame is also the step's *arena*: ``arena`` is every rank's own
    cells, rank after rank, in one read-only batch (rank ``r``'s row
    ``i`` is arena row ``base[r] + i``).  An owner answers a request by
    naming arena rows (:class:`~repro.core.celltable.CellRows`), and
    the requester copies a round's replies out of the arena in one
    gather, where a real machine would ship the rows.  That is exact
    because a rank's own rows open its table and are never written
    during the step: what the gather copies is what the owner holds
    when it serves.
    """

    def __init__(self, published: list[_Published]):
        n_branches = np.array([p.n_branches for p in published])
        if not n_branches.any():
            raise ValueError("no branch cells; empty simulation?")
        self.arena = arena = CellBatch.concat([p.cells for p in published])
        for name in CellBatch.__slots__:
            getattr(arena, name).flags.writeable = False
        #: Arena row of every rank's first cell.
        self.base = np.cumsum([0, *(len(p.cells) for p in published[:-1])])
        #: Declared wire size of every arena row (see ``CellBatch.nbytes``).
        self.row_nbytes = 200 + 16 * arena.cn + 32 * arena.pn
        self.table = table = CellTable()
        current = table.append(arena, SILENT, csr_take(self.base, n_branches),
                               with_particles=False)
        owner = np.repeat(np.arange(len(published)), n_branches)
        while True:
            level = key_levels(table.key[current])
            if not level.max():
                break
            deep = level == level.max()
            kids = current[deep]
            # Parents in the order their first child comes up, and every
            # parent's children in the order they come up.
            parents, first, slot = np.unique(table.key[kids] >> np.uint64(3),
                                             return_index=True, return_inverse=True)
            made = np.argsort(first, kind="stable")
            slot = np.argsort(made)[slot]
            by_parent = np.argsort(slot, kind="stable")
            kids, slot = kids[by_parent], slot[by_parent]
            n_kids = np.bincount(slot)
            nth = np.arange(kids.size) - np.repeat(np.cumsum(n_kids) - n_kids, n_kids)
            turns = [(slot[nth == j], kids[nth == j]) for j in range(n_kids.max())]
            mass, moment = np.zeros(made.size), np.zeros((made.size, 3))
            for s, c in turns:
                mass[s] = mass[s] + table.mass[c]
                moment[s] = moment[s] + table.mass[c][:, None] * table.com[c]
            com = table.com[kids[nth == 0]]
            np.divide(moment, mass[:, None], out=com, where=(mass > 0)[:, None])
            quad, bmax = np.zeros((made.size, 6)), np.zeros(made.size)
            for s, c in turns:
                d, m = table.com[c] - com[s], table.mass[c]
                d2 = row_dots(d)
                shifted = table.quad[c]
                for i, (a, b) in enumerate(((0, 0), (1, 1), (2, 2))):
                    shifted[:, i] += m * (3.0 * d[:, a] * d[:, b] - d2)
                for i, (a, b) in enumerate(((0, 1), (0, 2), (1, 2)), start=3):
                    shifted[:, i] += m * 3.0 * d[:, a] * d[:, b]
                quad[s] = quad[s] + shifted
                bmax[s] = np.maximum(bmax[s], np.sqrt(d2) + table.bmax[c])
            count = np.bincount(slot, weights=table.count[kids]).astype(np.int64)
            sorted_kids = np.lexsort((table.key[kids], slot))
            merged = table.append(CellBatch(
                key=parents[made], count=count, mass=mass, com=com, quad=quad, bmax=bmax,
                leaf=np.zeros(made.size, dtype=bool), cstart=np.cumsum(n_kids) - n_kids,
                cn=n_kids, child_key=table.key[kids[sorted_kids]],
                pstart=np.zeros(made.size, dtype=np.int64), pn=np.zeros(made.size, dtype=np.int64),
                ppos=np.empty((0, 3)), pmass=np.empty(0)), SILENT)
            table.child_row[table.n_kids - kids.size:table.n_kids] = kids[sorted_kids]
            current = np.concatenate([current[~deep], merged])
        #: Owning rank of every branch row; -1 for the aggregated cells.
        self.owner = np.concatenate([owner, np.full(len(table) - owner.size, -1)])
        #: First frame row of every rank's branch cells (its own rows
        #: ``0 .. n`` in its table), and of the aggregated cells.
        self.branch_base = np.cumsum([0, *n_branches])
        # An aggregated cell's children are frame rows (linked as it is
        # made); a branch cell's are not (-1), and another rank's branch
        # cell is known by its multipole only.
        table.kind[:len(table)] = np.where(self.owner >= 0, STUB, SILENT)
        table.freeze()
        #: The columns every rank's force jobs read the frame's cells from.
        self.block = (table.com[:len(table)], table.mass[:len(table)], table.quad[:len(table)])
        # Branch cells along the curve: the covering-branch lookup that
        # stamps cache entries, and the prefetch's starting frontier.
        rows = np.flatnonzero(self.owner >= 0)
        los = key_spans(self.table.key[rows])[0]
        order = np.argsort(los, kind="stable")
        self.branch_rows, self.branch_los = rows[order], los[order]


def _derived(memo: dict, slot: str, sources: tuple, build: Callable):
    """``build(sources)``, computed once for every rank.

    ``sources`` is what a collective handed every rank: in the one
    process the very same objects on every rank, so anything the ranks
    derive from them alike — the shared frame, the splitters — is a
    pure function of their identities.  ``memo`` is the program
    builder's, so it dies with the run; each ``slot`` holds one entry,
    which keeps its sources alive so that their ids cannot be recycled.
    One entry is enough: the collective that produces the next sources
    completes only after every rank has entered it, i.e. after every
    rank has looked this one up.  What is built is shared, so it must
    be read-only (a tuple, a read-only array, the frame).
    """
    key = tuple(map(id, sources))
    entry = memo.get(slot)
    if entry is None or entry[0] != key:
        entry = memo[slot] = (key, sources, build(sources))
    return entry[2]


def _shared_frame(published: tuple[_Published, ...], memo: dict) -> _Frame:
    """The :class:`_Frame` of one allgathered set of published cells."""
    return _derived(memo, "frame", published, _Frame)


def _with_cuts(splitters: tuple[int, ...]) -> tuple[tuple[int, ...], np.ndarray]:
    return splitters, splitter_cuts(splitters)


class _Traversal:
    """One rank's tree traversal + force evaluation over one particle set.

    Construction sets up the rank's :class:`CellTable` (its own cells,
    then the remote cells carried over from the ``previous`` step's
    table), its sink groups as columns, counters and owner lookup;
    :meth:`run` is the generator a rank program delegates to.  It
    returns ``(acc, pot, counts, work, stats)`` where ``work`` is the
    measured per-particle interaction flops (the weight the next step's
    incremental rebalancing consumes) and ``stats`` the rank-local
    communication counters.

    The walk is level-synchronous over *all* pending groups of a round:
    the frontier is a pair of index arrays ``(group, table row)``, MAC
    tested and classified with one vector expression per tree level
    (:meth:`advance_round`, through the shared
    :func:`~repro.core.traversal.walk`).  The interaction list of every
    sink group is a pure function of the global tree and the group geometry, and
    evaluation order within a group is fixed by sorting its sources on
    key — so the ``"async"`` and ``"blocking"`` schedules (and any
    cache state) produce bit-identical ``acc``/``pot``/``counts``.
    """

    def __init__(
        self,
        comm,
        config: ParallelConfig,
        kb,
        local: CellBatch,
        frame: _Frame,
        cuts: np.ndarray,
        pos: np.ndarray,
        mass: np.ndarray,
        cache: dict[str, int],
        previous: "CellTable | None",
        valid: np.ndarray,
        queue: list[RectJob],
    ):
        self.comm = comm
        self.config = config
        self.kb = kb
        self.frame = frame
        self.pos = pos
        self.mass = mass
        #: The remote-cache counters, which outlive the step: hits,
        #: misses, inserts, invalidated.
        self.cache = cache
        #: The run's force queue, shared by every rank: the rectangle
        #: jobs of completed walks, not evaluated yet.
        self.queue = queue
        self.mac = OpeningAngleMAC(config.theta)
        self.eps2 = config.eps * config.eps
        #: Interior domain boundaries, for the owner lookup.
        self.cuts = cuts
        self.stats: dict[str, float] = {
            "rounds": 0, "requests": 0, "batches": 0,
            "prefetch_rounds": 0, "prefetch_fetched": 0, "prefetch_used": 0,
        }
        n_owned = pos.shape[0]
        self.acc = np.zeros((n_owned, 3))
        self.pot = np.zeros(n_owned)
        self.work = np.zeros(n_owned)
        self.counts = InteractionCounts()

        self.table = CellTable()
        own = self.table.append(local, SILENT)  # own particles open the pool

        # Sink groups: the local leaves, along the curve.
        leaves = np.flatnonzero(local.leaf)
        leaves = leaves[np.argsort(local.pstart[leaves], kind="stable")]
        self.gkey, self.gstart, self.gn = local.key[leaves], local.pstart[leaves], local.pn[leaves]
        self.grow = own[leaves]
        self.gcom = np.empty((leaves.size, 3))
        self.gbmax = np.empty(leaves.size)
        for g, (s, n) in enumerate(zip(self.gstart.tolist(), self.gn.tolist())):
            # ``mean`` and ``norm(axis=1)`` bit for bit, without their
            # Python-level wrappers.
            sinks = pos[s:s + n]
            com = self.gcom[g] = sinks.sum(axis=0) / n
            d = sinks - com
            self.gbmax[g] = np.sqrt(np.add.reduce(d * d, axis=1)).max()
        # The local domain as one sphere: what the prefetch tests remote
        # cells against.
        #: Each group's own cell as a frame row: the rank's branch cells
        #: are its table's first rows and the frame's rows from ``lo``.
        lo, hi = frame.branch_base[comm.rank:comm.rank + 2]
        self.grow_top = np.where(self.grow < hi - lo, lo + self.grow, -1)
        self.center = pos.mean(axis=0) if n_owned else np.zeros(3)
        self.radius = float(np.linalg.norm(pos - self.center, axis=1).max()) if n_owned else 0.0
        self.seed(previous, valid)
        #: Groups whose walk has not completed yet.
        self.pending = np.ones(leaves.size, dtype=bool)
        #: Accepted (group, row) pairs of pending groups: cells to
        #: evaluate by multipole, leaves to evaluate particle by particle.
        none = np.empty(0, dtype=np.int64)
        self.cells, self.direct = (none, none), (none, none)

    # -- the table: finding rows, serving, requesting, admitting ----------
    def resolve(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, found)`` of distinct keys: ``~row`` of the shared
        frame for a key the frame holds (a cell above the branch cells,
        or a branch cell, whose multipole every rank has from the
        allgather; :meth:`walk_top` turns one the rank holds itself
        into its table's row), else a row of the table.  What is still
        missing lives on another rank: the miss mask is the non-local
        catch.
        """
        rows, found = self.frame.table.lookup(keys)
        rows = ~rows
        if not found.all():
            miss = np.flatnonzero(~found)
            rows[miss], found[miss] = self.table.lookup(keys[miss])
        return rows, found

    def column(self, name: str, rows: np.ndarray) -> np.ndarray:
        """Column ``name`` of rows of the table and of the frame (``~row``)."""
        top, table = getattr(self.frame.table, name), getattr(self.table, name)
        return np.where((rows < 0).reshape((-1,) + (1,) * (top.ndim - 1)),
                        top.take(~rows, axis=0, mode="clip"), table.take(rows, axis=0, mode="clip"))

    def seed(self, previous: "CellTable | None", valid: np.ndarray) -> None:
        """Carry over, before any walk, what the ``previous`` step fetched
        under a branch that is still ``valid`` (its fingerprint did not
        change); the rest is invalidated.  Nothing of the shared frame
        is copied: :meth:`resolve` finds its rows where they are.
        """
        table = self.table
        if previous is not None:
            # Not under a branch this rank owns now, though: its own rows
            # are what it serves from the arena, so they stay the live ones.
            valid = valid[self.owners_of(valid) != self.comm.rank]
            held = previous.fetched()
            rows = held[np.isin(previous.branch[held], valid)]
            self.cache["invalidated"] += held.size - rows.size
            kept = table.append(previous, REMOTE, rows)
            table.branch[kept] = previous.branch[rows]
        # Point every child key at its row in one lookup, so that the
        # walks ask again only for what is remote.
        rows, found = table.lookup(table.child_key[:table.n_kids])
        table.child_row[:table.n_kids] = np.where(found, rows, -1)

    def walk_top(self, g: np.ndarray, r: np.ndarray, shut: np.ndarray | None):
        """:func:`~repro.core.traversal.walk` of ``(g, r)`` in the shared
        frame (``r`` frame rows), read where it is; returns the accepted,
        opened and parked pairs, the tests and the misses.  A branch
        cell's children are no frame rows: the walks park on them.

        The frame's ``kind`` is another rank's branch cell as a
        :data:`STUB`; the walk reads the rank's own view, in which the
        branch cells it holds are its own (:data:`SILENT`) or fetched
        copies (:data:`REMOTE`).  Such a row is tested by the frame's
        copy, which has the same multipole, and then it is the table's
        row ``mine`` (the rank's own branch cells are its table's first
        rows).  Accepted cells are frame rows as ``~row``.
        """
        frame, table = self.frame, self.table
        fetched = table.fetched()
        copies = fetched[table.key[fetched] == table.branch[fetched]]
        lo, hi = frame.branch_base[self.comm.rank:self.comm.rank + 2]
        kind, mine = frame.table.kind[:len(frame.table)].copy(), np.full(len(frame.table), -1)
        kind[lo:hi], mine[lo:hi] = SILENT, np.arange(hi - lo)
        at = frame.table.lookup(table.key[copies])[0]
        kind[at], mine[at] = REMOTE, copies
        cells, (dg, dr), parked, tests, _, misses = walk(
            frame.table, (self.grow_top, self.gcom, self.gbmax), self.mac, g, r, shut=shut,
            kind=kind, hit=lambda rows: self.hit(mine[rows]))
        return (cells[0], ~cells[1]), (dg, mine[dr]), parked, tests, misses

    def hit(self, rows: np.ndarray) -> None:
        """Book walk visits to fetched rows: cache hits and the first
        use of what a prefetch wave brought in."""
        if rows.size:
            table = self.table
            self.cache["hits"] += rows.size
            used = rows[table.prefetched[rows]]
            if used.size:
                used = np.unique(used)
                table.prefetched[used] = False
                self.stats["prefetch_used"] += used.size

    def owners_of(self, keys: np.ndarray) -> np.ndarray:
        return np.minimum(np.searchsorted(self.cuts, key_spans(keys)[0], side="right"),
                          self.comm.size - 1)

    def serve_batch(self, requester: int, batch: KeyBatch | None) -> CellRows | None:
        """Name the arena rows of the requested cells: a rank's own
        cells open its table, so its row ``i`` is arena row ``base + i``."""
        if not batch:
            return None
        rows, found = self.table.lookup(batch.keys)
        if not found.all():
            raise RuntimeError(f"rank {self.comm.rank} does not hold every cell rank "
                               f"{requester} asked it for")
        rows += self.frame.base[self.comm.rank]
        return CellRows(rows, int(self.frame.row_nbytes[rows].sum()))

    def request_lists(self, keys: np.ndarray) -> list[KeyBatch | None]:
        """One sorted request batch per owner for the distinct, sorted
        ``keys`` (``None`` for an owner asked nothing: it costs what an
        empty batch does, 0 bytes), counted into the request/batch
        statistics."""
        reqs: list[KeyBatch | None] = [None] * self.comm.size
        owners = self.owners_of(keys)
        order = np.argsort(owners, kind="stable")
        firsts = np.flatnonzero(np.diff(owners[order], prepend=-1)).tolist()
        listed = keys[order]
        for a, b in zip(firsts, [*firsts[1:], len(listed)]):
            reqs[owners[order[a]]] = KeyBatch(listed[a:b])
        self.stats["requests"] += len(listed)
        self.stats["batches"] += len(firsts)
        return reqs

    def admit(self, replies: list) -> np.ndarray:
        """Copy every replied row out of the arena into the table, in
        one gather, stamped with its covering branch.  Returns the new
        rows."""
        named = [r.rows for r in replies if r is not None and len(r)]
        if not named:
            return np.empty(0, dtype=np.int64)
        table, frame = self.table, self.frame
        with wallclock.span("core.parallel.admit"):
            rows = table.append(frame.arena, REMOTE, np.concatenate(named))
        under = np.searchsorted(frame.branch_los, key_spans(table.key[rows])[0], side="right") - 1
        table.branch[rows] = frame.table.key[frame.branch_rows[np.maximum(under, 0)]]
        self.cache["inserts"] += rows.size
        return rows

    def charge(self, label: str, flops: float, mem_bytes: float = 0.0):
        """One labeled compute span at the kernel efficiency."""
        return self.comm.compute(
            flops=flops, mem_bytes=mem_bytes,
            flop_efficiency=self.config.kernel_efficiency, label=label,
        )

    # -- force evaluation of completed walks ---------------------------------
    def ready_lists(self, ready: np.ndarray):
        """Interaction lists of the ``ready`` groups, taken off the
        pending pairs, as CSR over all groups (the others' lists are
        empty): ``((offsets, cell rows), (offsets, pool indices of the
        direct sources))``, each group's sources in key order — the
        order that fixes the evaluation's float sums."""
        table, n_groups = self.table, self.gkey.shape[0]
        is_ready = np.zeros(n_groups, dtype=bool)
        is_ready[ready] = True
        out = []
        for name in ("cells", "direct"):
            g, r = getattr(self, name)
            mine = is_ready[g]
            setattr(self, name, (g[~mine], r[~mine]))
            out.append(csr_by_group(g[mine], r[mine], n_groups, self.column("key", r[mine])))
        return out[0], leaf_particles(table, *out[1])

    def tally(self, ready: np.ndarray, n_cells: np.ndarray, n_direct: np.ndarray):
        """Book the completed walks of ``ready`` against their source
        counts: interaction counts, per-particle work, and the
        potential's self-energy correction.  Returns the (flops, bytes)
        to charge the cost model."""
        ns, starts = self.gn[ready], self.gstart[ready]
        self.counts.groups += len(ready)
        self.counts.p2c += int(ns @ n_cells)
        self.counts.p2p += int(ns @ n_direct)
        per_sink = n_cells * FLOPS_PER_CELL_INTERACTION + n_direct * FLOPS_PER_INTERACTION
        self.work[csr_take(starts, ns)] += np.repeat(per_sink, ns)
        if self.eps2 > 0:
            # The direct kernels include each sink's softened self-pair;
            # remove the self-energy -G m / eps it adds to the potential.
            soft = csr_take(starts[n_direct > 0], ns[n_direct > 0])
            self.pot[soft] += self.config.G * self.mass[soft] / self.config.eps
        return float(ns @ per_sink), float(ns @ (n_cells * 80.0 + n_direct * 32.0))

    def evaluate_pergroup(self, ready: np.ndarray) -> tuple[float, float]:
        """The historical one-dense-call-per-group evaluator, kept as the
        differential reference for :meth:`evaluate_batch`."""
        table, kb, eps2, G = self.table, self.kb, self.eps2, self.config.G
        (c_off, crows), (s_off, src) = self.ready_lists(ready)
        for g in ready.tolist():
            own = slice(self.gstart[g], self.gstart[g] + self.gn[g])
            rows = crows[c_off[g]:c_off[g + 1]]
            if rows.size:
                a, p = kb.eval_cells_dense(self.pos[own], *(self.column(name, rows) for name in
                                                            ("com", "mass", "quad")), eps2, G)
                self.acc[own] += a
                self.pot[own] += p
            ids = src[s_off[g]:s_off[g + 1]]
            if ids.size:
                a, p = kb.eval_direct_dense(self.pos[own], table.ppos[ids], table.pmass[ids],
                                            eps2, G)
                self.acc[own] += a
                self.pot[own] += p
        return self.tally(ready, np.diff(c_off)[ready], np.diff(s_off)[ready])

    def evaluate_batch(self, ready: np.ndarray) -> tuple[float, float]:
        """Book a batch of completed walks and queue their rectangles
        for the serial code's evaluator
        (:func:`~repro.core.traversal.evaluate_rects`), which
        :meth:`run` calls on the whole queue before it returns.

        A rectangle's per-sink result is independent of the batch it is
        evaluated in, and each sink group completes in exactly one
        batch, so accelerations stay bit-identical across comm
        schedules, cache states, round boundaries and flushes — the
        same invariant the per-group path has.  (Sinks are pool indices
        too: the rank's own particles open the table's particle pool.)
        """
        cells, direct = self.ready_lists(ready)
        self.queue.append(RectJob.over(self.table, self.gstart, self.gn, cells, direct,
                                       self.acc, self.pot, self.frame.block))
        return self.tally(ready, np.diff(cells[0])[ready], np.diff(direct[0])[ready])

    def evaluate_many(self, ready: np.ndarray):
        """Generator charging one labeled compute span for a batch of
        completed walks — the overlap work of an async round."""
        evaluate = self.evaluate_batch if self.config.eval == "batched" else self.evaluate_pergroup
        flops, mem = evaluate(ready)
        if flops:
            yield self.charge("force", flops, mem)

    # -- schedules -----------------------------------------------------------
    def start(self):
        """Where the walks begin: ``(group, key, shut)`` triples.

        A group's walk always opens the cells on the way from the root
        down to the group itself (``theta <= 1``: a cell that contains
        the group cannot pass the MAC), so instead of descending those
        up to 21 levels one pass at a time, every group starts at the
        root and at the children of every cell on its way down, all at
        once.  The cells on the way are ``shut``: tested like any other,
        but not opened a second time.
        """
        shifts = np.arange(3, 3 * MAX_LEVEL + 1, 3, dtype=np.uint64)
        path = self.gkey[:, None] >> shifts  # the cells above each group; 0 beyond the root
        g, up = np.nonzero(path)
        keys, inverse = np.unique(path[g, up], return_inverse=True)
        rows = self.resolve(keys)[0][inverse]
        below = self.gkey[g] >> (shifts[up] - np.uint64(3))  # the next cell on the way down
        everyone = np.arange(self.gkey.shape[0], dtype=np.int64)
        parts = [(everyone, np.full(everyone.shape, ROOT_KEY, dtype=np.uint64), everyone >= 0)]
        # The frame holds the path down to the rank's branch cells, the
        # table the rest of it.
        for cells, on, at in ((self.frame.table, rows < 0, ~rows), (self.table, rows >= 0, rows)):
            n_kids = cells.cn[at[on]]
            kids = cells.child_key[csr_take(cells.cstart[at[on]], n_kids)]
            parts.append((np.repeat(g[on], n_kids), kids, kids == np.repeat(below[on], n_kids)))
        return tuple(np.concatenate(part) for part in zip(*parts))

    def advance_round(self, wg: np.ndarray, wkey: np.ndarray, shut: np.ndarray | None = None):
        """Advance every pending walk as far as the table allows and
        charge the MAC tests.

        ``(wg, wkey)`` are the (group, key) pairs the walks wait at
        (``shut``: see :meth:`start`); all groups of the round descend
        together, one tree level per pass.  Returns ``(wg, wkey,
        ready)``: the pairs now parked on missing keys and the groups
        whose walk completed.
        """
        keys, inverse = np.unique(wkey, return_inverse=True)
        rows, found = self.resolve(keys)
        rows, found = rows[inverse], found[inverse]
        top, below = found & (rows < 0), found & (rows >= 0)
        g, r, go = wg[below], rows[below], None if shut is None else shut[below]
        none = np.empty(0, dtype=np.int64)
        cells = direct = (none, none)
        parked, tests, misses = (none, none.astype(np.uint64)), 0, 0
        if top.any():
            cells, direct, parked, tests, misses = self.walk_top(
                wg[top], ~rows[top], None if shut is None else shut[top])
            # What lies below a branch cell lives in the table, or parks.
            keys, inverse = np.unique(parked[1], return_inverse=True)
            held_rows, there = (a[inverse] for a in self.table.lookup(keys))
            misses -= np.count_nonzero(there)
            g, r = np.concatenate([g, parked[0][there]]), np.concatenate([r, held_rows[there]])
            if go is not None:
                go = np.concatenate([go, np.zeros(np.count_nonzero(there), dtype=bool)])
            parked = (parked[0][~there], parked[1][~there])
        if g.size:
            more = walk(self.table, (self.grow, self.gcom, self.gbmax), self.mac, g, r, shut=go,
                        hit=self.hit)
            cells, direct, parked = (tuple(map(np.concatenate, zip(a, b))) for a, b in
                                     zip((cells, direct, parked), more[:3]))
            tests, misses = tests + more[3], misses + more[5]
        pg, pkey = parked
        self.cache["misses"] += misses + wg.size - np.count_nonzero(found)
        self.cells = tuple(np.concatenate(part) for part in zip(self.cells, cells))
        self.direct = tuple(np.concatenate(part) for part in zip(self.direct, direct))
        wg, wkey = np.concatenate([wg[~found], pg]), np.concatenate([wkey[~found], pkey])
        blocked = np.zeros(self.pending.shape[0], dtype=bool)
        blocked[wg] = True
        ready = np.flatnonzero(self.pending & ~blocked)
        self.pending[ready] = False
        if tests:
            yield self.charge("traversal", tests * FLOPS_PER_MAC_TEST)
        return wg, wkey, ready

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
        comm, table, stats = self.comm, self.table, self.stats
        center, radius = self.center, self.radius
        inv_theta = 1.0 / self.config.theta
        # The first wave tests the other ranks' branch cells where they
        # are, in the shared frame; later waves test what came back.
        cells = self.frame.table
        rows = self.frame.branch_rows[self.frame.owner[self.frame.branch_rows] != comm.rank]
        for wave in range(1, self.config.prefetch_rounds + 1):
            near = row_norms(cells.com[rows] - center) - radius <= cells.bmax[rows] * inv_theta
            if rows.size:
                yield self.charge("prefetch", rows.size * FLOPS_PER_MAC_TEST)
            rows = rows[near]  # every local group's MAC accepts the others
            leaf = cells.leaf[rows]
            stubs, inner = rows[leaf & (cells.pn[rows] == 0)], rows[~leaf]
            keys = np.concatenate([
                cells.key[stubs], cells.child_key[csr_take(cells.cstart[inner], cells.cn[inner])]])
            cached, found = table.lookup(keys)
            want = np.unique(keys[~found])
            total = yield from mpi_patterns.allreduce(comm, int(want.size))
            if total == 0:
                break
            replies, _ = yield from batched_request_reply(
                comm, self.request_lists(want), self.serve_batch, tag=_FETCH_TAG + 10
            )
            fetched = self.admit(replies)
            table.prefetched[fetched] = True
            stats["prefetch_fetched"] += fetched.size
            cells, rows = table, np.concatenate([cached[stubs.size:][found[stubs.size:]], fetched])
            stats["prefetch_rounds"] = wave

    def traverse_async(self):
        """Latency-hiding main loop: per-owner deduplicated request
        batches in flight while completed walks evaluate their forces.

        The walks need at most ``_MAX_ROUNDS`` = ``MAX_LEVEL`` = 21
        request rounds, on either schedule.  A round admits every key
        its walks parked on and nothing is evicted, so a walk resumes on
        a row the table holds and parks again, if at all, below it: a
        level deeper at least.  The first round parks at level 1 or
        deeper (the root is in the shared tree top), so round ``r``
        parks at level ``r`` or deeper, and no cell is deeper than
        ``MAX_LEVEL``.  A round beyond that means a reply went missing:
        ``RuntimeError``.
        """
        wg, wkey, shut = self.start()
        for rounds in range(1, _MAX_ROUNDS + 2):
            wg, wkey, ready = yield from self.advance_round(wg, wkey, shut)
            shut = None
            blocked = yield from mpi_patterns.allreduce(self.comm, int(self.pending.sum()))
            if blocked == 0:
                yield from self.evaluate_many(ready)
                return
            replies, _ = yield from batched_request_reply(
                self.comm, self.request_lists(np.unique(wkey)), self.serve_batch,
                overlap=self.evaluate_many(ready), tag=_FETCH_TAG,
            )
            self.admit(replies)
            self.stats["rounds"] = rounds
        raise RuntimeError("traversal did not converge; request round limit hit")

    def traverse_blocking(self):
        """Bulk-synchronous ABM reference: alltoall request/reply rounds
        with all force evaluation after the exchange (the pre-PR-5
        schedule, kept for differential testing)."""
        abm = ABMChannel(self.comm, lambda src, items: self.serve_batch(
            src, KeyBatch(np.array(items, dtype=np.uint64))))
        wg, wkey, shut = self.start()
        for _ in range(_MAX_ROUNDS + 1):
            wg, wkey, ready = yield from self.advance_round(wg, wkey, shut)
            shut = None
            # Per walk, not deduplicated across walks: the reference
            # sends what the pre-PR-5 code sent, byte for byte.
            for owner, key in zip(self.owners_of(wkey).tolist(), wkey.tolist()):
                abm.request(owner, key)
            yield from self.evaluate_many(ready)
            done = yield from abm.globally_done(int(self.pending.sum()))
            if done:
                self.stats["rounds"] = abm.rounds
                self.stats["requests"] = abm.requests_sent
                return
            self.admit((yield from abm.exchange()))
        raise RuntimeError("traversal did not converge; ABM round limit hit")

    def run(self):
        if self.config.comm == "async":
            if self.comm.size > 1:
                yield from self.prefetch_boundary()
            yield from self.traverse_async()
        else:
            yield from self.traverse_blocking()
        jobs, self.queue[:] = self.queue[:], []
        evaluate_rects(self.kb, jobs, self.eps2, self.config.G)
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


def _exchange(comm, cols: dict[str, np.ndarray], cuts: np.ndarray):
    """Step 2: alltoall every particle to the rank owning its key, then
    restore key order.  ``cols`` must be sorted by key."""
    size = comm.size
    bounds = piece_bounds(cols["keys"], cuts)
    # An empty piece travels as None (the wire size is declared): at a
    # thousand ranks nearly every piece is one.
    sendbuf = [None] * size
    for d in np.flatnonzero(np.diff(bounds)).tolist():
        sendbuf[d] = {name: a[bounds[d]:bounds[d + 1]] for name, a in cols.items()}
    received = yield comm.alltoall(
        sendbuf, nbytes=sum(a.nbytes for a in cols.values()) + 8 * (len(cols) + 1) * size
    )
    names = list(cols)
    filled = list(filter(None, received)) or [{name: a[:0] for name, a in cols.items()}]
    columns = key_sort(*(np.concatenate([r[name] for r in filled]) for name in names))
    yield _sort_cost(comm, columns[0].shape[0], "exchange-sort")
    return dict(zip(names, columns))


def _global_tree(comm, config: ParallelConfig, cols, box, splitters, memo: dict):
    """Steps 3–4: this rank's cells, bulk-built from its
    :class:`CellServer`, and the allgather of their top — the branch
    cells — that gives every rank the shared frame.

    Returns ``(local cells, frame, branch_fps)``; ``branch_fps`` (branch
    key -> data fingerprint, what decides which fetched cells stay valid
    in the next step) is gathered only when the particles can move, else
    it is empty.
    """
    rank = comm.rank
    n_owned = cols["keys"].shape[0]
    server = CellServer(cols["keys"], cols["pos"], cols["mass"], box,
                        bucket_size=config.bucket_size)
    local = server.subtree(occupied_cover(cols["keys"], splitters[rank], splitters[rank + 1]))
    # The non-empty cells of the cover come first (every other row is
    # some row's child): the branch cells, published by multipole and
    # child keys only.
    n_branches = len(local) - int(local.cn.sum())
    yield comm.compute(flops=120.0 * n_owned, mem_bytes=96.0 * n_owned, label="tree-build")
    published = yield from mpi_patterns.allgather(comm, _Published(local, n_branches))
    branch_fps: Mapping[int, bytes] = {}
    if "vel" in cols:
        fps_mine = [(key, server.branch_fingerprint(key))
                    for key in local.key[:n_branches].tolist()]
        all_fps = yield from mpi_patterns.allgather(comm, fps_mine)
        branch_fps = _derived(memo, "fps", all_fps,
                              lambda a: MappingProxyType({k: fp for b in a for (k, fp) in b}))
    return local, _shared_frame(published, memo), branch_fps


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
    memo: dict = {}
    queue: list[RectJob] = []

    def program(comm):
        rank, size = comm.rank, comm.size
        kb = get_backend(config.backend)
        cols = chunks[rank]
        snap = ckpt.restored(rank) if ckpt is not None else None
        if snap is not None:
            # -- restart: resume from the committed checkpoint ------------
            cols = {name: snap[name] for name in ("keys", *cols)}
            splitters, cuts = _with_cuts(tuple(int(s) for s in snap.meta["splitters"]))
            box = BoundingBox(np.asarray(snap.meta["box_corner"]), snap.meta["box_size"])
            # Reading the dump back from local disk costs real time.
            nbytes = sum(a.nbytes for a in cols.values())
            yield comm.elapse(ckpt.dump_time_s(nbytes), label="checkpoint-restore")
        else:
            # -- initial decomposition: sample sort + exchange ------------
            box = yield from _bounding_box(comm, cols, n_steps, dt)
            cols = yield from _key_and_sort(comm, cols, box)
            sample = sample_splitters(cols["keys"], size, config.oversample)
            samples = yield from mpi_patterns.allgather(comm, sample)
            splitters, cuts = _derived(memo, "splitters", samples,
                                       lambda s: _with_cuts(pick_splitters(s, size)))
            cols = yield from _exchange(comm, cols, cuts)
            if ckpt is not None:
                # The decomposition is the state worth protecting: dump
                # it the moment it exists (gated by the configured
                # interval), so a crash only ever repeats the traversal.
                yield from ckpt.save(
                    comm,
                    cols,
                    meta={
                        "phase": "post-exchange",
                        "splitters": list(splitters),
                        "box_corner": box.corner.tolist(),
                        "box_size": box.size,
                    },
                )

        cache = dict.fromkeys(("hits", "misses", "inserts", "invalidated"), 0)
        table, held_fps = None, {}  # the previous step's table and fingerprints
        counts_total = InteractionCounts()
        stats_total: dict[str, float] = {}
        step_outs: list[dict[str, np.ndarray]] = []
        step_work: list[float] = []
        for step in range(n_steps):
            local, frame, branch_fps = yield from _global_tree(
                comm, config, cols, box, splitters, memo)
            # -- step 5: cache carry-over: what the previous step fetched
            # under a branch whose fingerprint did not change stays.
            unchanged = dict(branch_fps.items() & held_fps.items())
            valid = np.array(list(unchanged), dtype=np.uint64)
            # Its own span: the resume this runs in ends on the prefetch's
            # first charge, which would otherwise book the table's setup.
            with wallclock.span("core.parallel.table"):
                traversal = _Traversal(comm, config, kb, local, frame, cuts, cols["pos"],
                                       cols["mass"], cache,
                                       table if cache_across_steps else None, valid, queue)
            table, held_fps = traversal.table, branch_fps
            acc, pot, counts, work, stats = yield from traversal.run()
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
                # Work is whole flops, so the scan is exact in any order.
                before = _derived(memo, "totals", totals, lambda t: (0.0, *accumulate(t)))
                props = splitter_candidates(cols["keys"], work, before[rank], before[-1], size)
                all_props = yield from mpi_patterns.allgather(comm, props)
                splitters, cuts = _derived(
                    memo, "splitters", (splitters, *all_props),
                    lambda s: _with_cuts(merge_splitter_candidates(s[0], s[1:])))

            # -- re-key (fixed box) and migrate to owners -----------------
            cols = yield from _key_and_sort(comm, cols, box)
            cols = yield from _exchange(comm, cols, cuts)

        for k, v in {**cache, "size": table.fetched().size}.items():
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
    for name, value in (("n_ranks", n_ranks), ("n_steps", n_steps)):
        if isinstance(value, bool) or not hasattr(value, "__index__"):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if not (isinstance(dt, Real) and math.isfinite(dt)):
        raise ValueError(f"dt must be finite, got {dt!r}")
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


def _gather(sim: SimResult, n: int) -> tuple[ParallelRunResult, np.ndarray]:
    """Assemble the per-rank returns of :func:`_make_program` in input
    order: the run result, plus the potentials of the last force
    evaluation.  Sums the ranks' ``comm`` stat dicts."""
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
    record_trace: bool = True,
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
    record_trace:
        Forwarded to the engine (fault-free path only): ``False`` keeps
        no trace, so large-``n_ranks`` scaling runs keep their memory
        bounded.  Physics is unaffected.  The virtual-time trace is
        ``result.sim.observer``.

    Invariants: for a fixed ``n_ranks`` the returned accelerations are
    bit-identical across ``config.comm`` schedules, cache capacities,
    and prefetch rounds — communication strategy never touches the
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
        )
        sim = resilient.sim
    else:
        sim = run(_make_program(chunks, config), n_ranks, cost, record_trace=record_trace)
    out, potentials = _gather(sim, n)
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
    cache_across_steps: bool = True,
    rebalance: bool = True,
    record_trace: bool = True,
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
        ``False`` carries no fetched cell over a step — the "cold"
        reference the cross-timestep consistency tests compare
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
        n_ranks, cost, record_trace=record_trace,
    )
    return _gather(sim, n)[0]
