"""Cells as columns: the wire batch and the per-rank hashed cell table.

Section 4.2: *"a hash table is used to translate the key into a pointer
to where the cell data are stored … and to catch accesses to non-local
data"*.  Here the pointer is a row number.  :class:`CellBatch` is ``n``
cell records as a struct of arrays, sized in O(1): what a processor
publishes (all of its own cells; the step's arena concatenates every
rank's), and what a receiver copies out of the arena in one gather.  A
reply to a request is a :class:`CellRows`: the arena rows of the cells
asked for, named rather than copied.  :class:`CellTable` is the one
growable batch a rank keeps per step: its own cells and every remote
cell it has fetched, indexed by a
:class:`~repro.core.hashtable.KeyHashTable`; the shared top of the
tree (every rank's branch cells and the cells above them) is one
read-only table of the step that every rank reads in place.  A batched
:meth:`CellTable.lookup` answers a whole traversal frontier at once and
its miss mask *is* the non-local catch.  The table is the remote-cell
cache too: which fetched cells are resident and under which branch of
its owner's each was fetched are columns of it.

Children and leaf particles are CSR runs (``cstart``/``cn`` into
``child_key``, ``pstart``/``pn`` into ``ppos``/``pmass``).  A cell known
by its multipole only (a branch cell as allgathered, before its owner
was asked for the particles) has ``pn == 0``.

``CellServer.record`` and its :class:`~repro.core.cellserver.CellRecord`
stay the per-cell spec: ``tests/test_celltable_differential.py`` holds
every row a server produces in bulk against it, bit for bit.
"""

from __future__ import annotations

import numpy as np

from .hashtable import KeyHashTable

__all__ = ["CellBatch", "CellRows", "CellTable", "csr_take", "row_dots", "row_norms",
           "SILENT", "REMOTE", "STUB", "DEAD"]

#: What a visit to a row means to the remote-cache counters: a local
#: or shared-top cell (not counted), a fetched copy (a hit), another
#: rank's branch cell in the shared top, known by its multipole only (a
#: miss: its real record is still on its owner), a superseded row (not
#: found).
SILENT, REMOTE, STUB, DEAD = 0, 1, 2, 3

#: The columns of a cell record proper, the CSR runs of its children and
#: leaf particles, and the pools those runs point into.
_FIELDS = (
    ("key", np.uint64, ()), ("count", np.int64, ()), ("mass", np.float64, ()),
    ("com", np.float64, (3,)), ("quad", np.float64, (6,)), ("bmax", np.float64, ()),
    ("leaf", np.bool_, ()),
)
_RUNS = (("cstart", np.int64, ()), ("cn", np.int64, ()),
         ("pstart", np.int64, ()), ("pn", np.int64, ()))
_POOLS = (("child_key", np.uint64, ()), ("ppos", np.float64, (3,)), ("pmass", np.float64, ()))

#: A :class:`CellTable`'s columns in the three groups that grow
#: together: one entry per row, per child slot, per leaf particle.
_ROWS = _FIELDS + _RUNS + (("kind", np.int8, ()), ("prefetched", np.bool_, ()),
                           ("branch", np.uint64, ()))
_KIDS = _POOLS[:1] + (("child_row", np.int64, ()),)
_PARTS = _POOLS[1:]


def csr_take(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat indices of the runs ``[starts[i], starts[i] + counts[i])``, in order."""
    out = np.arange(int(counts.sum()), dtype=np.int64)
    out += np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return out


def row_dots(d: np.ndarray) -> np.ndarray:
    """``v @ v`` of every row ``v`` of ``d``, bit for bit.

    The dot of two short vectors is a BLAS ``ddot``, whose fused
    multiply-adds round differently from ``einsum`` or
    ``(d * d).sum(1)``; a stacked ``matmul`` of row by column makes the
    same ``ddot`` call per row without leaving C.
    """
    return np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0]


def row_norms(d: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of every row of ``d``, bit for bit (it is the
    root of :func:`row_dots`)."""
    return np.sqrt(row_dots(d))


class CellBatch:
    """``n`` cell records as columns: the wire format and the unit of
    table insertion.  ``nbytes`` is the modelled wire size, what a list
    of one 10-tuple per record would cost: 200 bytes a record, 16 a
    child key, 32 a leaf particle."""

    __slots__ = tuple(name for name, _, _ in _FIELDS + _RUNS + _POOLS)

    def __init__(self, **columns: np.ndarray):
        for name in CellBatch.__slots__:
            setattr(self, name, columns[name])

    def __len__(self) -> int:
        return self.key.shape[0]

    @property
    def nbytes(self) -> int:
        return 200 * len(self) + 16 * int(self.cn.sum()) + 32 * int(self.pn.sum())

    def take(self, rows: np.ndarray, with_particles: bool = True) -> "CellBatch":
        """The given rows as a compact batch of their own (a fancy-index
        of every column; children and particles re-packed)."""
        cn = self.cn[rows]
        kids = csr_take(self.cstart[rows], cn)
        if with_particles:
            pn = self.pn[rows]
            parts = csr_take(self.pstart[rows], pn)
        else:
            pn = np.zeros(len(rows), dtype=np.int64)
            parts = pn[:0]
        return CellBatch(
            **{name: getattr(self, name)[rows] for name, _, _ in _FIELDS},
            cstart=np.cumsum(cn) - cn, cn=cn, child_key=self.child_key[kids],
            pstart=np.cumsum(pn) - pn, pn=pn, ppos=self.ppos[parts], pmass=self.pmass[parts],
        )

    @classmethod
    def concat(cls, batches: "list[CellBatch]") -> "CellBatch":
        cols = {name: np.concatenate([getattr(b, name) for b in batches])
                for name in cls.__slots__}
        for start, n, pool in (("cstart", "cn", "child_key"), ("pstart", "pn", "pmass")):
            shift = np.cumsum([0] + [len(getattr(b, pool)) for b in batches[:-1]])
            cols[start] = cols[start] + np.repeat(shift, [len(b) for b in batches])
        return cls(**cols)

    @classmethod
    def empty(cls, n: int = 0) -> "CellBatch":
        """``n`` blank records: every column zero, no children, no particles."""
        return cls(**{name: np.zeros((n,) + shape, dtype=dtype)
                      for name, dtype, shape in _FIELDS + _RUNS},
                   **{name: np.empty((0,) + shape, dtype=dtype) for name, dtype, shape in _POOLS})


class KeyBatch:
    """The cell keys one rank asks one owner for, kept as the ``uint64``
    array they are.  ``nbytes`` is the modelled wire size, what a list
    of ``n`` Python ints would cost: 16 bytes a key."""

    __slots__ = ("keys",)

    def __init__(self, keys: np.ndarray):
        self.keys = keys

    def __len__(self) -> int:
        return self.keys.shape[0]

    @property
    def nbytes(self) -> int:
        return 16 * len(self)


class CellRows:
    """A reply to a :class:`KeyBatch`: the rows, in an arena every rank
    reads, of the cells asked for, in the order asked.  ``nbytes`` is
    declared by the server: what the :class:`CellBatch` of those rows
    costs on the wire."""

    __slots__ = ("rows", "nbytes")

    def __init__(self, rows: np.ndarray, nbytes: int):
        self.rows = rows
        self.nbytes = nbytes

    def __len__(self) -> int:
        return self.rows.shape[0]


class CellTable(CellBatch):
    """One rank's cells of one step: a growable :class:`CellBatch` plus
    the key -> row hash index.

    Rows are only ever appended, each column group (rows, child slots,
    leaf particles) grown at most once per :meth:`append`, which gathers
    a batch's rows straight into the columns.  A key
    appended again (a key a reply repeats, or one fetched twice)
    re-points the index at the new row and marks
    the old one :data:`DEAD`, in the one pass over the batch's keys
    that indexes it, so the live rows are exactly the rows not
    :data:`DEAD`.  A rank appends its own cells first, so that its own
    particles open the particle pool and fetched ones land behind them.
    ``kind`` is the row's meaning to the cache counters, ``prefetched``
    marks rows a prefetch wave brought in and no walk has used yet, and
    ``child_row`` caches, beside ``child_key``, the row each child key
    was last found at (-1: not yet).

    The table is also the remote-cell cache, an unbounded one: nothing
    is evicted.  Its content is :meth:`fetched`; one column carries what
    a cache keeps per entry and stands in for a per-key fingerprint by
    an equivalence.  ``branch`` is the key of the owner's branch cell
    that covers the row.  Every live fetched row under a branch carries
    that branch's *current* data fingerprint
    (``CellServer.branch_fingerprint``: the row was fetched under it, or
    carried over a step because it had not changed), so a fingerprint
    per row would be redundant: the rows valid in the next step are
    those whose ``branch`` keeps its fingerprint, the rest are
    invalidated.
    """

    __slots__ = ("n", "n_kids", "n_parts", "kind", "prefetched", "branch", "child_row", "index")

    def __init__(self):
        for name, dtype, shape in _ROWS + _KIDS + _PARTS:
            setattr(self, name, np.empty((16,) + shape, dtype=dtype))
        self.n = self.n_kids = self.n_parts = 0
        self.index = KeyHashTable()

    @classmethod
    def over(cls, batch: CellBatch) -> "CellTable":
        """The table of one complete tree: its columns *are* the batch's
        arrays (nothing is copied, so a write to either is seen through
        both) and every row :data:`SILENT`.  The batch is numbered as
        :func:`~repro.core.tree.build_tree` numbers cells: the children
        of a cell are the rows after it, so child slot ``i`` is row
        ``i + 1`` and every child resolves without a lookup.  This is
        the serial code's table: the one-rank case, with nothing remote
        to catch."""
        table = cls()
        for name in CellBatch.__slots__:
            setattr(table, name, getattr(batch, name))
        table.n, table.n_kids, table.n_parts = len(batch), len(batch.child_key), len(batch.pmass)
        for name in ("kind", "prefetched", "branch"):
            setattr(table, name, np.zeros(table.n, dtype=getattr(table, name).dtype))
        table.index.insert(batch.key, np.arange(table.n, dtype=np.int64))
        table.child_row = np.arange(1, table.n, dtype=np.int64)
        return table

    def __len__(self) -> int:
        return self.n

    def freeze(self) -> None:
        """Make every column read-only: a table many readers share."""
        for name, _, _ in _ROWS + _KIDS + _PARTS:
            getattr(self, name).flags.writeable = False

    def _reserve(self, group, used: int, need: int) -> None:
        """Grow every column of ``group`` (they share a length) to hold
        ``need`` entries, keeping the first ``used``: to what is asked,
        or half again what the columns hold, which keeps a table
        that grows by many small appends (a rank's replies, round after
        round) from copying itself each time."""
        if need <= getattr(self, group[0][0]).shape[0]:
            return
        for name, _, _ in group:
            col = getattr(self, name)
            grown = np.empty((max(need, col.shape[0] * 3 // 2),) + col.shape[1:], dtype=col.dtype)
            grown[:used] = col[:used]
            setattr(self, name, grown)

    def append(self, batch: CellBatch, kind, rows=None, with_particles: bool = True) -> np.ndarray:
        """Add ``batch``'s ``rows`` as new rows of the given kind(s),
        gathered straight into the table's columns; returns the new rows.
        Without ``rows``, the whole batch, its pools as they are; with
        them, their children and (unless ``with_particles`` is false)
        their particles re-packed in row order."""
        if rows is None:
            cstart, cn, pstart, pn = batch.cstart, batch.cn, batch.pstart, batch.pn
            kids = parts = None
            sizes = len(batch), len(batch.child_key), len(batch.pmass)
        else:
            cn = batch.cn[rows]
            pn = batch.pn[rows] if with_particles else np.zeros(len(rows), dtype=np.int64)
            kids, parts = csr_take(batch.cstart[rows], cn), csr_take(batch.pstart[rows], pn)
            cstart, pstart = np.cumsum(cn) - cn, np.cumsum(pn) - pn
            sizes = len(rows), len(kids), len(parts)
        n, k, p = self.n, self.n_kids, self.n_parts
        end, k_end, p_end = n + sizes[0], k + sizes[1], p + sizes[2]
        self._reserve(_ROWS, n, end)
        self._reserve(_KIDS, k, k_end)
        self._reserve(_PARTS, p, p_end)
        for name, at, to, picks in ([(name, n, end, rows) for name, _, _ in _FIELDS] + [
                ("child_key", k, k_end, kids), ("ppos", p, p_end, parts),
                ("pmass", p, p_end, parts)]):
            column, out = getattr(batch, name), getattr(self, name)[at:to]
            if picks is None:
                out[...] = column
            else:  # take with mode="clip" writes into the slice; "raise" buffers it
                column.take(picks, axis=0, out=out, mode="clip")
        np.add(cstart, k, out=self.cstart[n:end])
        np.add(pstart, p, out=self.pstart[n:end])
        self.cn[n:end], self.pn[n:end] = cn, pn
        self.kind[n:end], self.prefetched[n:end], self.branch[n:end] = kind, False, 0
        self.child_row[k:k_end] = -1
        self.n, self.n_kids, self.n_parts = end, k_end, p_end
        new = np.arange(n, end, dtype=np.int64)
        # A key has one live row: the index moves to the new one, and
        # the row it leaves (an older copy, or an earlier one of the
        # same batch) is retired in the same pass.
        self.kind[self.index.insert(self.key[n:end], new)] = DEAD
        return new

    def lookup(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, found)`` of a batch of keys; superseded rows are misses."""
        rows, found = self.index.lookup(keys)
        found &= self.kind[rows] != DEAD
        return rows, found

    def fetched(self) -> np.ndarray:
        """Rows of the remote cells held: the cache's content.  A row
        counts while it is :data:`REMOTE`: one the index no longer points
        at is :data:`DEAD`, superseded by a later copy of its key (of
        one key twice in a reply, the later copy is the live one).

        >>> own, reply = CellBatch.empty(2), CellBatch.empty(3)
        >>> own.key[:], reply.key[:] = (8, 9), (72, 73, 72)
        >>> table = CellTable()
        >>> _ = table.append(own, SILENT)  # own cells are no cache content
        >>> table.append(reply, REMOTE)
        array([2, 3, 4])
        >>> table.fetched()
        array([3, 4])
        >>> table.append(reply, REMOTE, np.array([1]))  # 73 again
        array([5])
        >>> table.fetched()
        array([4, 5])
        """
        return np.flatnonzero(self.kind[:self.n] == REMOTE)
