"""The tree walk and the rectangle evaluator, for every caller.

:func:`walk` is the one tree traversal of the package: a
level-synchronous ``(group, row)`` frontier over a hashed
:class:`~repro.core.celltable.CellTable`.  Every pass tests one flat
array of (group, candidate-cell) pairs against an acceptance rule — a
shared distance computation over the whole frontier — and emits the
accepted and the opened pairs.  It has three callers, which differ in
the table, the group geometry, the rule and the order they sort the
emitted pairs into (:func:`csr_by_group`):

* :func:`build_interaction_lists`, over :attr:`Tree.table
  <repro.core.tree.Tree.table>` — the one-rank case of the hashed
  table: nothing remote, so nothing parks.  Its lists serve the serial
  treecode, the out-of-core one (:mod:`repro.core.outofcore`) and the
  vortex method's Biot–Savart sum (:mod:`repro.vortex`);
* :func:`repro.sph.neighbors.find_neighbors`, over the same table with
  a rule that prunes instead of approximating;
* ``_Traversal.advance_round`` of :mod:`repro.core.parallel`, over a
  rank's table, where a missing key parks the walk until it is fetched.

:func:`evaluate_rects` likewise evaluates interaction lists for the
serial, the out-of-core and the parallel code: flat CSR rectangles
(:class:`RectJob`: one for a serial tree, a whole queue of simulated
ranks' batches joined into one for the parallel code), a handful of
dense kernel calls through a pluggable :mod:`~repro.core.backend`, with
pair expansion chunked so memory stays bounded at any N.

The threads of a force evaluation live here, above the kernels, which
are plain arithmetic.  Over :data:`SPLIT_SINKS` sinks and more,
:func:`compute_forces` cuts the leaf groups into one contiguous run per
thread of the backend (``NumpyBackend(threads=)``), and each thread
walks its run from the root and sums its forces; :func:`evaluate_rects`
cuts its rectangles into runs of equal kernel time the same way.  There
is one fork/join per call, the calling thread runs the first run, and a
run never splits again.  Numpy releases the GIL inside a ufunc but not
between two: two copies of one evaluation in two threads of a process
each took 13-19% longer than alone, in two processes 2-10%.  Sinks are
disjoint across runs and a rectangle's sums do not depend on its batch,
so the results are bit-identical to one run.  Only the calling thread
opens wall-clock spans and emits counters, as totals.

The historical one-group-at-a-time walker is kept verbatim as
:func:`compute_forces_reference`: the differential-physics suite pins
the batched path to it (accelerations within 1e-10, bit-identical
:class:`InteractionCounts`), and the Table 5 benchmark measures the
batched path's speedup against it.

The structure still mirrors the original HOT code (interaction lists
built per group, then a vectorizable inner loop), which is what makes
the flop accounting honest: the returned :class:`InteractionCounts`
feed the Table 6 performance model with the same
38-flop-per-interaction convention the paper uses.
"""

from __future__ import annotations

import os
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..machine.specs import FLOPS_PER_INTERACTION
from ..obs import wallclock
from .backend import get_backend
from .celltable import DEAD, REMOTE, STUB, CellTable, csr_take
from .domain import split_weighted
from .mac import OpeningAngleMAC
from .tree import Tree

__all__ = [
    "InteractionCounts",
    "InteractionLists",
    "RectJob",
    "TraversalResult",
    "build_interaction_lists",
    "compute_forces",
    "compute_forces_reference",
    "csr_by_group",
    "evaluate_interaction_lists",
    "evaluate_rects",
    "leaf_particles",
    "walk",
]

#: Flop convention for a cell (monopole+quadrupole) interaction.
FLOPS_PER_CELL_INTERACTION = 70.0

#: Default cap on expanded (sink, source) pairs per chunk of a dense
#: kernel call.  A call's workspace holds its live (rows x width) arrays
#: at its largest chunk, 12 of 8 B a pair for the cell kernel: 6.3 MB at
#: 2^16, more than a core's L2.  The size is the measured balance between
#: the Python overhead paid once per chunk (2^12-2^15 are slower, on two
#: threads by a quarter at 2^15) and the spill of larger arrays (2^17-2^18
#: are no faster and double the workspace; EXPERIMENTS.md "WC").
DEFAULT_PAIR_CHUNK = 1 << 16

#: Most rows (table plus pool) :func:`evaluate_rects` joins into one
#: kernel call.  Past it, joining saves no dispatch worth the copies
#: and the chunk-sized kernel workspace it costs (at 512 simulated
#: ranks an unbounded join held 23 MB more at peak; EXPERIMENTS.md "SR").
JOIN_ROWS = 1 << 14

#: Fewest sinks a force evaluation (:func:`compute_forces` or
#: :func:`evaluate_rects`) is cut into runs over threads for; fewer run
#: on the calling thread alone.  Split over two threads, a serial
#: treecode took 1.4-1.5x its inline time up to N = 500, broke even at
#: N = 1 000-1 500 and won 93% of pairs from N = 2 000 on.  From this
#: bound to 8 000 sinks, evaluate_rects alone took 0.60-0.75x its
#: inline time out of core and 0.69-0.88x in a flush of 2 or 4 ranks,
#: but 1.04x when the 8-rank flush of 2 000 sinks was forced to split
#: (EXPERIMENTS.md "WC").
SPLIT_SINKS = 1 << 11

#: Kernel time of a cell pair, in direct pairs: what :func:`evaluate_rects`
#: weighs its runs by.  Both kernels inline at N = 12 000 took 50-53 ns a
#: padded cell pair and 18-20 ns a padded direct pair, 2.65-2.89 times
#: (EXPERIMENTS.md "WC").  Cut by the flop convention's 70/38, which
#: stays the count of flops and virtual time, the second of two runs
#: had 1.4-2.1% more kernel time than the first.
CELL_PAIR_COST = 2.7


@dataclass
class InteractionCounts:
    """Interaction totals accumulated by a traversal."""

    p2p: int = 0
    p2c: int = 0
    groups: int = 0

    @property
    def flops(self) -> float:
        """Total flops under the paper's accounting convention."""
        return self.p2p * FLOPS_PER_INTERACTION + self.p2c * FLOPS_PER_CELL_INTERACTION

    def merged(self, other: "InteractionCounts") -> "InteractionCounts":
        return InteractionCounts(
            self.p2p + other.p2p, self.p2c + other.p2c, self.groups + other.groups
        )


@dataclass
class TraversalResult:
    """Accelerations/potentials in the *caller's* particle order."""

    accelerations: np.ndarray
    potentials: np.ndarray
    counts: InteractionCounts


@dataclass
class InteractionLists:
    """Flat CSR interaction lists for every sink group of a tree.

    ``groups[g]`` is a leaf cell id; its accepted cells are
    ``cell_ids[cell_offsets[g]:cell_offsets[g+1]]`` and its *external*
    direct-source leaves ``leaf_ids[leaf_offsets[g]:leaf_offsets[g+1]]``
    (the group's own particle run is implied and appended last during
    evaluation, exactly as the reference walker did).  Per-group list
    order matches the reference walker's breadth-first emission order.
    """

    groups: np.ndarray
    cell_offsets: np.ndarray
    cell_ids: np.ndarray
    leaf_offsets: np.ndarray
    leaf_ids: np.ndarray
    counts: InteractionCounts = field(default_factory=InteractionCounts)
    mac_tests: int = 0
    passes: int = 0

    def cells_of(self, g: int) -> np.ndarray:
        return self.cell_ids[self.cell_offsets[g]:self.cell_offsets[g + 1]]

    def leaves_of(self, g: int) -> np.ndarray:
        return self.leaf_ids[self.leaf_offsets[g]:self.leaf_offsets[g + 1]]

    def direct_sources(self, table: CellTable):
        """Every group's direct sources as CSR lists of the table's
        particle pool, ``(offsets, ids)``: its external leaves in list
        order, then its own run, last (the reference walker's
        convention)."""
        everyone = np.arange(self.groups.shape[0], dtype=np.int64)
        leaves = csr_by_group(
            np.concatenate([np.repeat(everyone, np.diff(self.leaf_offsets)), everyone]),
            np.concatenate([self.leaf_ids, self.groups]), self.groups.shape[0])
        return leaf_particles(table, *leaves)


def csr_by_group(g_idx: np.ndarray, items: np.ndarray, n_groups: int, tie=None):
    """Sort (group, item) pairs into CSR form ``(offsets, items)``:
    within a group by ``tie``, or without one stable (the pairs' own
    order).  This is the one place a caller of :func:`walk` fixes its
    source order, and with it the order of its float sums."""
    order = np.argsort(g_idx, kind="stable") if tie is None else np.lexsort((tie, g_idx))
    offsets = np.concatenate(([0], np.cumsum(np.bincount(g_idx, minlength=n_groups))))
    return offsets, items[order]


def walk(table: CellTable, groups, rule, g: np.ndarray, r: np.ndarray, *, shut=None,
         resolve=None, hit=lambda rows: None, kind=None):
    """The one tree walk: advance a ``(group, row)`` frontier over
    ``table`` as far as the table allows, one tree level per pass.

    ``groups`` are the sink groups as columns ``(grow, centre, bound)``:
    the table row of each group's own cell (never accepted for it), and
    the sphere ``rule.accept(dist, cell_bmax, group_bound, cell_mass)``
    tests every frontier cell against.  ``(g, r)`` is where the walks
    stand; ``shut`` marks the pairs that are tested but not opened in
    the first pass.  An accepted cell leaves the frontier, a rejected
    leaf that holds its particles is opened, a rejected cell is replaced
    by its children through ``child_row``.  What the table cannot
    answer parks the walk on a key: a leaf known by its multipole only
    (a :data:`STUB`), or a child key that ``resolve(keys) -> (rows,
    found)`` (default: the table's own lookup) does not find; a child it
    finds is remembered in ``child_row``, and a read-only table resolves
    no child.  ``hit(rows)`` is told of every visit to a fetched
    (:data:`REMOTE`) row.  A table that holds
    its whole tree (:attr:`Tree.table`) has no such rows and every child
    resolved: nothing parks, nothing is looked up.

    ``kind``, if given, is what each row is to this walk in place of the
    table's ``kind``: the parallel code walks the shared, read-only tree
    top with it, where a cell one rank owns or has fetched is a
    :data:`STUB` to every other rank.

    Returns ``(accepted, opened, parked, tests, passes, misses)``: the
    accepted and the opened ``(group, row)`` pairs and the parked
    ``(group, key)`` pairs, each in emission order (pass by pass, along
    the frontier), the number of acceptance tests and passes, and the
    visits that found no usable row.
    """
    grow, centre, bound = groups
    resolve = resolve or table.lookup
    kinds = table.kind if kind is None else kind
    none = np.empty(0, dtype=np.int64)
    accepted, opened, parked = [(none, none)], [(none, none)], [(none, none.astype(np.uint64))]
    tests = passes = misses = 0
    while g.size:
        passes += 1
        tests += g.size
        kind = kinds[r]
        hit(r[kind == REMOTE])
        misses += np.count_nonzero(kind == STUB)
        # take and compress, not fancy and boolean indexing: the same
        # arrays, two to five times faster on a large frontier.
        d = table.com.take(r, axis=0) - centre.take(g, axis=0)
        dist = np.sqrt(np.einsum("ij,ij->i", d, d))
        # The criteria are elementwise, so the group-side bound may be
        # an array: one shared test over the whole frontier.
        ok = rule.accept(dist, table.bmax[r], bound[g], table.mass[r])
        ok &= r != grow[g]  # never approximate the group by itself
        accepted.append((g.compress(ok), r.compress(ok)))
        g, r = g.compress(~ok), r.compress(~ok)
        leaf, held = table.leaf[r], kinds[r] != STUB
        whole = leaf & held
        opened.append((g.compress(whole), r.compress(whole)))
        # A remote leaf known only by its multipole: the rule wants it
        # opened, so its particles must be fetched — park on it.
        stub = leaf & ~held
        parked.append((g[stub], table.key[r[stub]]))
        # Open the rest: their children are the next frontier.
        go = ~leaf
        if shut is not None:
            go &= ~shut[~ok]
            shut = None
        g, r = g.compress(go), r.compress(go)
        n_kids = table.cn[r]
        slots = csr_take(table.cstart[r], n_kids)
        g = np.repeat(g, n_kids)
        r = table.child_row[slots]
        lost = (r < 0) | (kinds[r] == DEAD)
        if lost.any():
            if table.child_row.flags.writeable:  # a shared table resolves no child
                ask = np.unique(slots[lost])
                rows, there = resolve(table.child_key[ask])
                table.child_row[ask] = np.where(there, rows, -1)
                r = table.child_row[slots]
                lost = r < 0
            parked.append((g[lost], table.child_key[slots[lost]]))
            misses += np.count_nonzero(lost)
            g, r = g[~lost], r[~lost]
    accepted, opened, parked = (tuple(np.concatenate(part) for part in zip(*pairs))
                                for pairs in (accepted, opened, parked))
    return accepted, opened, parked, tests, passes, misses


def build_interaction_lists(tree: Tree, mac=None) -> InteractionLists:
    """Walk the tree for all sink groups per frontier pass.

    Every leaf is a sink group and starts :func:`walk` at the root of
    :attr:`Tree.table`: accepted cells join their group's cell list,
    opened external leaves its direct list.  Per-group results are
    identical (same lists, same order) to running the reference
    one-group walker on every leaf.
    """
    lists = _lists(tree, mac if mac is not None else OpeningAngleMAC(), tree.leaf_ids)
    wallclock.count("gravity.mac_tests", lists.mac_tests)
    wallclock.count("gravity.traversal_passes", lists.passes)
    return lists


def _lists(tree: Tree, mac, groups: np.ndarray) -> InteractionLists:
    """:func:`build_interaction_lists` for a run of the tree's leaves:
    the walk from the root of these groups alone emits, for each, what
    the walk of all of them does, in the same order."""
    table = tree.table
    n_groups = groups.shape[0]
    everyone = np.arange(n_groups, dtype=np.int64)
    (ag, ac), (dg, dc), _, mac_tests, passes, _ = walk(
        table, (groups, table.com[groups], table.bmax[groups]), mac,
        everyone, np.zeros_like(everyone))
    cell_offsets, cell_ids = csr_by_group(ag, ac, n_groups)
    # The group itself is excluded: its own run is appended to the
    # direct list exactly once, at evaluation time.
    ext = dc != groups[dg]
    dg, dc = dg[ext], dc[ext]
    leaf_offsets, leaf_ids = csr_by_group(dg, dc, n_groups)

    ns = tree.count[groups]
    n_src = ns + np.bincount(dg, weights=table.pn[dc], minlength=n_groups).astype(np.int64)
    counts = InteractionCounts(
        p2p=int(np.dot(ns, n_src)),
        p2c=int(np.dot(ns, np.diff(cell_offsets))),
        groups=n_groups,
    )
    return InteractionLists(groups, cell_offsets, cell_ids, leaf_offsets, leaf_ids,
                            counts, mac_tests, passes)


def leaf_particles(table: CellTable, offsets: np.ndarray, rows: np.ndarray):
    """CSR lists of leaf rows as CSR lists of their particles (indices
    into the table's particle pool): ``(offsets, ids)``."""
    pn = table.pn[rows]
    return np.concatenate(([0], np.cumsum(pn)))[offsets], csr_take(table.pstart[rows], pn)


class RectJob(namedtuple("RectJob", "starts counts cells direct com mass quad ppos pmass acc pot "
                                    "top", defaults=(None,))):
    """Rectangles over one table and the ``acc``/``pot`` they add into.

    Rectangle ``i`` is the sink run ``starts[i] : starts[i] + counts[i]``
    of the particle pool ``ppos``/``pmass`` against ``cells = (offsets,
    rows)``, its accepted cells (rows of ``com``/``mass``/``quad``), and
    ``direct = (offsets, ids)``, its direct sources in the pool.  A
    sink's ``acc``/``pot`` row is its pool index.  :meth:`over` takes
    the columns as views of a table's rows so far: rows are only ever
    appended, so a queued job still reads what it was built with.
    ``top`` is a second table's ``(com, mass, quad)`` that a negative
    cell row ``~i`` names (row ``i``): the parallel code's shared tree
    top, one tuple that every rank's jobs read where it is.
    """

    __slots__ = ()

    @classmethod
    def over(cls, table: CellTable, starts, counts, cells, direct, acc, pot,
             top=None) -> "RectJob":
        n, n_parts = len(table), table.n_parts
        return cls(starts, counts, cells, direct, table.com[:n], table.mass[:n], table.quad[:n],
                   table.ppos[:n_parts], table.pmass[:n_parts], acc, pot, top)


def _joined(jobs: list[RectJob]) -> tuple[RectJob, list[np.ndarray], np.ndarray]:
    """``jobs`` as one job: their ``top`` once (the jobs of one flush
    share it, or have none), then each job's table and pool behind the
    last one's, its lists shifted to match, over ``acc``/``pot`` buffers
    that hold every sink's current value.  Returns ``(job, sinks,
    pool)``: each job's rectangles' sinks that have a source, and its
    pool offset."""
    cat = np.concatenate
    top = [] if jobs[0].top is None else [jobs[0].top]
    blocks = top + [(j.com, j.mass, j.quad) for j in jobs]
    rows = np.cumsum([0] + [b[1].shape[0] for b in blocks])
    pool = np.cumsum([0] + [j.pmass.shape[0] for j in jobs])
    live = [(np.diff(j.cells[0]) > 0) | (np.diff(j.direct[0]) > 0) for j in jobs]
    sinks = [csr_take(j.starts[ok], j.counts[ok]) for j, ok in zip(jobs, live)]
    acc, pot = np.zeros((pool[-1], 3)), np.zeros(pool[-1])
    for j, s, p in zip(jobs, sinks, pool):
        acc[s + p], pot[s + p] = j.acc[s], j.pot[s]

    def lists(pairs):
        offsets, ids = zip(*pairs)
        base = np.cumsum([0] + [i.size for i in ids])
        return cat([o[:-1] + b for o, b in zip(offsets, base)] + [base[-1:]]), cat(ids)

    def column(parts):
        # Joined component-major, (k, n): the kernels' component-major
        # copy of the (n, k) column is then this array itself.
        out = np.empty(parts[0].shape[1:] + (sum(map(len, parts)),))
        return cat([part.T for part in parts], axis=-1, out=out).T

    return RectJob(cat([j.starts + p for j, p in zip(jobs, pool)]), cat([j.counts for j in jobs]),
                   lists([(o, np.where(i < 0, ~i, i + r))
                          for (o, i), r in zip((j.cells for j in jobs), rows[len(top):])]),
                   lists([(o, i + p) for (o, i), p in zip((j.direct for j in jobs), pool)]),
                   *(column([b[k] for b in blocks]) for k in range(3)),
                   column([j.ppos for j in jobs]), column([j.pmass for j in jobs]), acc, pot
                   ), sinks, pool


def _runs(kb, sinks: int, weights: np.ndarray) -> list[tuple[int, int]]:
    """Cut the items of ``weights`` (a force evaluation over ``sinks``
    sinks) into contiguous non-empty runs of roughly equal weight, one
    per thread of ``kb``; one run below :data:`SPLIT_SINKS`, or for a
    backend without ``threads`` (a wrapper knows nothing of threads)."""
    n = min(getattr(kb, "threads", 1), weights.shape[0])
    if sinks < SPLIT_SINKS or n <= 1:
        return [(0, weights.shape[0])]
    edges = np.unique(split_weighted(weights, n)).tolist()
    return list(zip(edges[:-1], edges[1:]))


#: The helper threads of :func:`_fork_join`, by (process, size).
_POOLS: dict[tuple[int, int], ThreadPoolExecutor] = {}


def _fork_join(tasks: list) -> list:
    """Call each task with ``traced``: the first on the calling thread
    with ``True``, the rest on helper threads with ``False``; their
    results, in order.  A task never forks again, so no helper
    waits on a pool it occupies.  A forked child makes pools of its
    own: an inherited pool's threads do not exist there."""
    if len(tasks) == 1:
        return [tasks[0](True)]
    key = (os.getpid(), len(tasks) - 1)
    # Two first callers may both make a pool; setdefault keeps one, and
    # the other never started a thread (an executor starts them on submit).
    pool = _POOLS.get(key) or _POOLS.setdefault(
        key, ThreadPoolExecutor(key[1], thread_name_prefix="repro-kernel"))
    helpers = [pool.submit(task, False) for task in tasks[1:]]
    try:
        first = tasks[0](True)
    finally:
        wait(helpers)  # never return while a helper still writes acc/pot
    return [first] + [future.result() for future in helpers]


def _span(traced: bool, name: str, **args):
    """A wall-clock span on the calling thread; helpers open none."""
    return wallclock.span(name, cat="gravity", **args) if traced else nullcontext()


def _major(job: RectJob) -> tuple[np.ndarray, ...]:
    """``job``'s pool, centres and quadrupoles component-major, as the
    kernels read them (each component contiguous: every step of a pair
    kernel is a contiguous ufunc, not a strided column access); made
    once a call, before its runs fork."""
    return tuple(np.ascontiguousarray(a.T) for a in (job.ppos, job.com, job.quad))


def _kernels(kb, job: RectJob, cols, lo: int, hi: int, eps2, G, pair_chunk, traced: bool) -> None:
    """Both kernels over rectangles ``lo:hi`` of ``job``, whose
    :func:`_major` columns are ``cols``."""
    pool3, com3, quad6 = cols
    (co, ci), (do, di) = job.cells, job.direct
    starts, counts = job.starts[lo:hi], job.counts[lo:hi]
    with _span(traced, "gravity.kernel.cells", backend=kb.name):
        kb.eval_cell_rects(pool3, starts, counts, co[lo:hi + 1] - co[lo], ci[co[lo]:co[hi]],
                           com3, job.mass, quad6, eps2, G, job.acc, job.pot, pair_chunk)
    with _span(traced, "gravity.kernel.direct", backend=kb.name):
        kb.eval_direct_rects(pool3, job.pmass, starts, counts, do[lo:hi + 1] - do[lo],
                             di[do[lo]:do[hi]], eps2, G, job.acc, job.pot, pair_chunk)


def evaluate_rects(kb, jobs: list[RectJob], eps2, G, pair_chunk=DEFAULT_PAIR_CHUNK) -> None:
    """Evaluate every job's rectangles (:class:`RectJob`) with one cell
    and one direct kernel call, added into each job's ``acc`` and
    ``pot``; jobs of more than :data:`JOIN_ROWS` rows in all are halved
    until they are not, or are one job.  Over at least
    :data:`SPLIT_SINKS` sinks, the rectangles are cut into runs of
    equal kernel time (:data:`CELL_PAIR_COST`), one per thread, each of
    which evaluates both kernels.

    One job is evaluated in place.  Several are joined into one first
    and every sink's sums are copied back: a rectangle's per-sink
    result does not depend on the batch it is evaluated in (backend
    contract), so the bits are those of one call per job.  Jobs may
    share ``acc``/``pot`` if each sink has sources in at most one of
    their rectangles.
    """
    if not jobs:
        return
    if len(jobs) > 1 and sum(len(j.mass) + len(j.pmass) for j in jobs) > JOIN_ROWS:
        for part in (jobs[:len(jobs) // 2], jobs[len(jobs) // 2:]):
            evaluate_rects(kb, part, eps2, G, pair_chunk)
        return
    alone = len(jobs) == 1 and jobs[0].top is None
    job, sinks, pool = (jobs[0], [], []) if alone else _joined(jobs)
    cost = job.counts * (CELL_PAIR_COST * np.diff(job.cells[0]) + np.diff(job.direct[0]))
    _fork_join([partial(_kernels, kb, job, _major(job), lo, hi, eps2, G, pair_chunk)
                for lo, hi in _runs(kb, int(job.counts.sum()), cost)])
    for j, s, p in zip(jobs, sinks, pool):
        j.acc[s], j.pot[s] = job.acc[s + p], job.pot[s + p]


def _refuse(eps, pair_chunk) -> None:
    if not (np.isfinite(eps) and eps >= 0):
        raise ValueError(f"softening eps must be finite and non-negative, got {eps!r}")
    if pair_chunk < 1:
        raise ValueError("pair_chunk must be positive")


def _job(tree: Tree, lists: InteractionLists, acc, pot) -> RectJob:
    """The rectangles of ``lists``' groups, into ``acc``/``pot``."""
    groups, table = lists.groups, tree.table
    return RectJob.over(table, tree.start[groups], tree.count[groups],
                        (lists.cell_offsets, lists.cell_ids), lists.direct_sources(table), acc, pot)


def _finish(tree: Tree, counts: InteractionCounts, pot, eps, G) -> None:
    if eps * eps > 0.0:
        # Remove each particle's softened self-energy -G m / eps.
        pot += G * tree.masses / eps
    wallclock.count("gravity.p2p", counts.p2p)
    wallclock.count("gravity.p2c", counts.p2c)
    wallclock.count("gravity.groups", counts.groups)


def evaluate_interaction_lists(
    tree: Tree,
    lists: InteractionLists,
    *,
    eps: float = 0.0,
    G: float = 1.0,
    backend=None,
    pair_chunk: int = DEFAULT_PAIR_CHUNK,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate batched interaction lists; returns (acc, pot) tree-order."""
    _refuse(eps, pair_chunk)
    kb = get_backend(backend)
    acc = np.zeros_like(tree.positions)
    pot = np.zeros(tree.n_particles)
    evaluate_rects(kb, [_job(tree, lists, acc, pot)], eps * eps, G, pair_chunk)
    _finish(tree, lists.counts, pot, eps, G)
    return acc, pot


def compute_forces(
    tree: Tree,
    *,
    mac=None,
    eps: float = 0.0,
    G: float = 1.0,
    backend=None,
    pair_chunk: int = DEFAULT_PAIR_CHUNK,
) -> TraversalResult:
    """Gravitational accelerations and potentials for all particles.

    Batched: over at least :data:`SPLIT_SINKS` particles, the leaf
    groups are cut, in tree order, into one run per thread of the
    backend, of equal sinks plus groups (a group's source gathers and
    walk tests are paid once, whatever its sink count).  Each thread
    walks its run from the root in shared frontier passes and evaluates
    its lists with the backend's dense chunked kernels into the shared
    ``acc``/``pot``, the calling thread the first run.  A run's walk
    emits each of its groups' pairs in the order the walk of all groups
    does, and its sinks are its own, so the result, the counts and the
    ``gravity.*`` counters are those of one run.  The group's own
    particles always interact directly (including the softened
    self-term exclusion), so the result converges to the direct O(N^2)
    sum as the MAC tightens.
    """
    _refuse(eps, pair_chunk)
    kb = get_backend(backend)
    mac = mac if mac is not None else OpeningAngleMAC()
    leaves, n = tree.leaf_ids, tree.n_particles
    table = tree.table  # a cached property: built here, not by two runs at once
    acc = np.zeros_like(tree.positions)
    pot = np.zeros(n)

    def run(lo, hi, traced):
        with _span(traced, "gravity.traversal"):
            lists = _lists(tree, mac, leaves[lo:hi])
        _kernels(kb, _job(tree, lists, acc, pot), cols, 0, hi - lo, eps * eps, G, pair_chunk,
                 traced)
        return lists

    with wallclock.span("gravity.compute_forces", cat="gravity", backend=kb.name):
        # Every run's job reads the table's columns: copied once, here.
        cols = _major(RectJob.over(table, None, None, None, None, acc, pot))
        runs = _fork_join([partial(run, lo, hi) for lo, hi in
                           _runs(kb, n, tree.count[leaves] + n / leaves.size)])
        counts = InteractionCounts()
        for lists in runs:
            counts = counts.merged(lists.counts)
        wallclock.count("gravity.mac_tests", sum(lists.mac_tests for lists in runs))
        wallclock.count("gravity.traversal_passes", max(lists.passes for lists in runs))
        _finish(tree, counts, pot, eps, G)

    # Undo the Morton sort: return in the caller's original order.
    acc_out = np.empty_like(acc)
    pot_out = np.empty_like(pot)
    acc_out[tree.order] = acc
    pot_out[tree.order] = pot
    return TraversalResult(acc_out, pot_out, counts)


# -- the historical one-group-at-a-time walker --------------------------
#
# Kept verbatim as the pinning reference, and run by nothing else: the
# differential suite holds the batched path to within 1e-10 of this
# walker with bit-identical counts, the property suite holds the
# batched lists equal to ``_collect_lists`` group by group, and a slow
# test of the Table 5 study measures the batched speedup against it.


def _collect_lists(tree: Tree, group: int, mac) -> tuple[np.ndarray, np.ndarray]:
    """Interaction lists for one sink group: (cell ids, particle idx)."""
    g_com = tree.com[group]
    g_bmax = float(tree.bmax[group])
    accepted: list[np.ndarray] = []
    direct: list[np.ndarray] = []
    frontier = np.array([0], dtype=np.int64)
    while frontier.size:
        dist = np.linalg.norm(tree.com[frontier] - g_com, axis=1)
        ok = mac.accept(dist, tree.bmax[frontier], g_bmax, tree.mass[frontier])
        ok &= frontier != group  # never approximate the group by itself
        accepted.append(frontier[ok])
        opened = frontier[~ok]
        if opened.size == 0:
            break
        # The group itself is excluded: the caller adds its own run to
        # the direct list exactly once.
        leaves = opened[(tree.n_children[opened] == 0) & (opened != group)]
        for leaf in leaves:
            s, c = tree.start[leaf], tree.count[leaf]
            direct.append(np.arange(s, s + c, dtype=np.int64))
        internal = opened[tree.n_children[opened] > 0]
        if internal.size:
            counts = tree.n_children[internal]
            firsts = tree.first_child[internal]
            frontier = np.concatenate(
                [np.arange(f, f + c, dtype=np.int64) for f, c in zip(firsts, counts)]
            )
        else:
            frontier = np.empty(0, dtype=np.int64)
    cells = np.concatenate(accepted) if accepted else np.empty(0, dtype=np.int64)
    parts = np.concatenate(direct) if direct else np.empty(0, dtype=np.int64)
    return cells, parts


def _eval_cells(sinks, com, mass, quad, eps2, G):
    """Monopole + quadrupole field of cells at sink positions."""
    return get_backend().eval_cells_dense(sinks, com, mass, quad, eps2, G)


def _eval_direct(sinks, sources, src_mass, eps2, G):
    """Plummer-softened direct sum; zero-distance pairs contribute 0."""
    return get_backend().eval_direct_dense(sinks, sources, src_mass, eps2, G)


def compute_forces_reference(
    tree: Tree,
    *,
    mac=None,
    eps: float = 0.0,
    G: float = 1.0,
) -> TraversalResult:
    """The pre-batching walker: one sink group per frontier walk."""
    if eps < 0:
        raise ValueError("softening must be non-negative")
    mac = mac if mac is not None else OpeningAngleMAC()
    eps2 = eps * eps

    acc = np.zeros_like(tree.positions)
    pot = np.zeros(tree.n_particles)
    counts = InteractionCounts()

    for group in tree.leaf_ids:
        sl = tree.particles_of(group)
        sinks = tree.positions[sl]
        cells, parts = _collect_lists(tree, group, mac)
        ns = sinks.shape[0]
        counts.groups += 1
        if cells.size:
            a, p = _eval_cells(sinks, tree.com[cells], tree.mass[cells], tree.quad[cells], eps2, G)
            acc[sl] += a
            pot[sl] += p
            counts.p2c += ns * cells.size
        # Direct: external leaf particles plus the group's own run.
        own = np.arange(sl.start, sl.stop, dtype=np.int64)
        all_parts = np.concatenate([parts, own]) if parts.size else own
        a, p = _eval_direct(sinks, tree.positions[all_parts], tree.masses[all_parts], eps2, G)
        acc[sl] += a
        pot[sl] += p
        counts.p2p += ns * all_parts.size
        if eps2 > 0.0:
            # Remove each particle's softened self-energy -G m / eps.
            pot[sl] += G * tree.masses[sl] / eps

    # Undo the Morton sort: return in the caller's original order.
    acc_out = np.empty_like(acc)
    pot_out = np.empty_like(pot)
    acc_out[tree.order] = acc
    pot_out[tree.order] = pot
    return TraversalResult(acc_out, pot_out, counts)
