"""The columnar cell table against its per-cell spec.

``CellServer.record(key)`` is the spec of one cell;
``CellServer.subtree(roots)`` is the bulk accessor the parallel treecode
runs on.  Every row of the one must equal the other field for field and
bit for bit (float columns compared through ``tobytes()``), children and
leaf slices included, for any cloud and bucket size.  The declared wire
size of a column batch must equal what the old encoding — a list of one
10-tuple per record, sized by the recursive ``payload_nbytes`` walk —
cost; the old encoding is kept here as the oracle.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ROOT_KEY,
    BoundingBox,
    CellServer,
    combine_records,
    cover_interval,
    key_level,
    keys_from_positions,
)
from repro.core.cellserver import CellRecord, key_interval, key_spans
from repro.core.celltable import REMOTE, SILENT, STUB, CellBatch, CellTable, row_norms
from repro.core.parallel import _Frame, _Published
from repro.simmpi import payload_nbytes

UNIT_BOX = BoundingBox(np.zeros(3), 1.0)


def _server(n, bucket, seed, coincident, massless):
    rng = np.random.default_rng(seed)
    pos = rng.random((n, 3))
    if coincident:
        pos[: n // 2] = pos[0]  # a leaf that overflows its bucket at the deepest level
    mass = rng.random(n) + 0.1
    if massless:
        mass[::3] = 0.0
    keys = keys_from_positions(pos, UNIT_BOX)
    order = np.argsort(keys, kind="stable")
    return CellServer(keys[order], pos[order], mass[order], UNIT_BOX, bucket)


def _records(batch) -> list[CellRecord]:
    """One per-cell record per row of a column batch."""
    out = []
    for i in range(len(batch)):
        kids = slice(batch.cstart[i], batch.cstart[i] + batch.cn[i])
        parts = slice(batch.pstart[i], batch.pstart[i] + batch.pn[i])
        out.append(CellRecord(
            int(batch.key[i]), int(batch.count[i]), float(batch.mass[i]), batch.com[i].copy(),
            batch.quad[i].copy(), float(batch.bmax[i]), bool(batch.leaf[i]),
            tuple(batch.child_key[kids].tolist()),
            batch.ppos[parts].copy() if batch.pn[i] else None,
            batch.pmass[parts].copy() if batch.pn[i] else None,
        ))
    return out


def _rec_to_wire(rec) -> tuple:
    """The tuple encoding of a record the treecode used to ship."""
    return (rec.key, rec.count, rec.mass, rec.com, rec.quad, rec.bmax, rec.is_leaf,
            tuple(rec.children), rec.positions, rec.masses)


def _same(a, b) -> bool:
    floats = all(np.asarray(getattr(a, f), dtype=np.float64).tobytes()
                 == np.asarray(getattr(b, f), dtype=np.float64).tobytes()
                 for f in ("mass", "com", "quad", "bmax"))
    particles = all(
        (getattr(a, f) is None) == (getattr(b, f) is None)
        and (getattr(a, f) is None or getattr(a, f).tobytes() == getattr(b, f).tobytes())
        for f in ("positions", "masses"))
    return (floats and particles and (a.key, a.count, a.is_leaf, a.children)
            == (b.key, b.count, b.is_leaf, b.children))


clouds = dict(n=st.integers(1, 120), bucket=st.integers(1, 32), seed=st.integers(0, 10**6),
              coincident=st.booleans(), massless=st.booleans())


@given(**clouds)
@settings(max_examples=40, deadline=None)
def test_subtree_rows_equal_records_bit_for_bit(n, bucket, seed, coincident, massless):
    server = _server(n, bucket, seed, coincident, massless)
    batch = server.subtree([ROOT_KEY])
    rows = _records(batch)
    assert rows and rows[0].key == ROOT_KEY and sum(r.is_leaf * r.count for r in rows) == n
    for row in rows:
        assert _same(row, server.record(row.key)), row.key
    # The leaf rows tile the particles: the sink groups of the traversal.
    runs = sorted((int(batch.pstart[i]), int(batch.pn[i])) for i in np.flatnonzero(batch.leaf))
    assert [s for s, _ in runs] == np.cumsum([0] + [c for _, c in runs[:-1]]).tolist()
    assert runs[-1][0] + runs[-1][1] == n


@given(cut=st.floats(0.05, 0.95), **clouds)
@settings(max_examples=25, deadline=None)
def test_branch_batches_and_wire_size(cut, n, bucket, seed, coincident, massless):
    server = _server(n, bucket, seed, coincident, massless)
    lo, hi = key_interval(ROOT_KEY)
    mid = int(server.keys[int(cut * n)]) if n > 1 else hi
    for roots in (cover_interval(lo, mid), cover_interval(mid, hi)):
        local = server.subtree(roots)
        live = [k for k in roots if server.record(k).count]
        assert local.key[:len(live)].tolist() == live  # non-empty roots first, in order
        # Branch cells are published without particles, served cells with.
        for with_particles in (False, True):
            rows = np.arange(len(live)) if not with_particles else np.arange(len(local))
            sent = local.take(rows, with_particles=with_particles)
            spec = [server.record(int(k), with_particles=None if with_particles else False)
                    for k in sent.key]
            assert all(_same(a, b) for a, b in zip(_records(sent), spec))
            assert sent.nbytes == payload_nbytes([_rec_to_wire(r) for r in spec])
            assert sent.nbytes == 200 * len(spec) + sum(
                16 * len(r.children) + (32 * r.count if r.positions is not None else 0)
                for r in spec)
    assert CellBatch.empty().nbytes == payload_nbytes([]) == 0


@given(**clouds)
@settings(max_examples=20, deadline=None)
def test_table_round_trips_batches(n, bucket, seed, coincident, massless):
    """Appending, concatenating and taking move rows, never change them."""
    server = _server(n, bucket, seed, coincident, massless)
    local = server.subtree([ROOT_KEY])
    table = CellTable()
    own = table.append(local, SILENT)
    assert np.array_equal(table.ppos[:n], server.positions)  # own particles open the pool
    rng = np.random.default_rng(seed)
    picks = [rng.integers(0, len(local), rng.integers(1, 6)) for _ in range(3)]
    shipped = CellBatch.concat([table.take(own[p]) for p in picks])
    again = table.append(shipped, REMOTE)
    spec = [server.record(int(local.key[i])) for p in picks for i in p]
    assert all(_same(a, b) for a, b in zip(_records(table.take(again)), spec))
    # The index points at the newest row of a key; older ones are dead.
    rows, found = table.lookup(shipped.key)
    assert found.all() and np.array_equal(table.key[rows], shipped.key)
    assert set(rows.tolist()) <= set(again.tolist())
    assert not table.lookup(np.array([1 << 62], dtype=np.uint64))[1].any()


def _aggregate_cell_by_cell(branch_records):
    """The shared tree top as it was built before the columns: one
    ``combine_records`` call per parent, deepest level first."""
    frame = {r.key: r for r in branch_records}
    current = dict(frame)
    while True:
        deepest = max(key_level(k) for k in current)
        if deepest == 0:
            return frame
        parents, next_current = {}, {}
        for k, rec in current.items():
            if key_level(k) == deepest:
                parents.setdefault(k >> 3, []).append(rec)
            else:
                next_current[k] = rec
        for pk, kids in parents.items():
            frame[pk] = next_current[pk] = combine_records(pk, kids)
        current = next_current


@given(ranks=st.integers(1, 9), **clouds)
@settings(max_examples=40, deadline=None)
def test_frame_equals_cell_by_cell_aggregation(ranks, n, bucket, seed, coincident, massless):
    whole = _server(n, bucket, seed, coincident, massless)
    cuts = np.sort(np.random.default_rng(seed).integers(0, n + 1, ranks - 1)).tolist()
    bounds = [0, *cuts, n]
    lo, hi = key_interval(ROOT_KEY)
    edges = [lo, *(int(whole.keys[c]) if c < n else hi for c in cuts), hi]
    batches, published = [], []
    for r in range(ranks):
        own = slice(bounds[r], bounds[r + 1])
        server = CellServer(whole.keys[own], whole.positions[own], whole.masses[own],
                            UNIT_BOX, bucket)
        local = server.subtree(cover_interval(edges[r], edges[r + 1]))
        published.append(_Published(local, len(local) - int(local.cn.sum())))
        batches.append(local.take(np.arange(published[-1].n_branches), with_particles=False))
        assert published[-1].nbytes == batches[-1].nbytes  # what the allgather charges
    frame = _Frame(published)
    spec = _aggregate_cell_by_cell([rec for b in batches for rec in _records(b)])
    rows = _records(frame.table.take(np.arange(len(frame.table))))
    assert sorted(r.key for r in rows) == sorted(spec)
    assert all(_same(row, spec[row.key]) for row in rows)
    owners = {rec.key: rank for rank, b in enumerate(batches) for rec in _records(b)}
    assert [owners.get(r.key, -1) for r in rows] == frame.owner.tolist()
    # Every child an aggregated cell has is a frame row, linked; a
    # branch cell's children are no frame rows.
    table = frame.table
    at = {key: row for row, key in enumerate(table.key[:len(table)].tolist())}
    linked = [at.get(k, -1) for k in table.child_key[:table.n_kids].tolist()]
    assert table.child_row[:table.n_kids].tolist() == linked
    assert all(k in at for owner, k in zip(np.repeat(frame.owner, table.cn[:len(table)]),
                                           table.child_key[:table.n_kids].tolist()) if owner < 0)
    assert table.kind[:len(table)].tolist() == np.where(frame.owner >= 0, STUB, SILENT).tolist()


def test_key_spans_is_the_vector_key_interval():
    rng = np.random.default_rng(3)
    keys = [ROOT_KEY, (1 << 63) | 5, (1 << 64) - 1]
    for level in range(1, 22):
        body = rng.integers(0, 1 << 62, 6, dtype=np.uint64) & np.uint64((1 << (3 * level)) - 1)
        keys += ((1 << (3 * level)) | body).tolist()
        keys.append((1 << (3 * level + 1)) - 1)  # all ones: rounds up on its way to float
    lo, last = key_spans(np.array(keys, dtype=np.uint64))
    assert [(int(a), int(b) + 1) for a, b in zip(lo, last)] == [key_interval(k) for k in keys]


def test_row_norms_is_linalg_norm_bit_for_bit():
    rng = np.random.default_rng(4)
    d = rng.standard_normal((4000, 3)) * rng.random((4000, 1))
    assert row_norms(d).tobytes() == np.array([np.linalg.norm(v) for v in d]).tobytes()
    assert row_norms(np.empty((0, 3))).shape == (0,)
