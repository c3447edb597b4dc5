"""``CellTable`` against a plain-Python model of it.

Random sequences of what a rank does to its table (append batches whose
keys repeat within and across batches, of one kind or of mixed kinds, so
that later copies supersede earlier ones and leave them ``DEAD``) are
run on a table and on a model made of a dict and lists.  After every step the table must answer as the model
does: ``lookup`` of every key, ``fetched()``, the child rows a walk
resolves (``child_row``, re-asked where stale, as ``traversal.walk``
does), and every appended row's record, children and particles.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.celltable import DEAD, REMOTE, SILENT, STUB, CellBatch, CellTable

#: Few keys, so that batches repeat them.
KEYS = st.integers(1, 9)
KINDS = st.sampled_from([SILENT, REMOTE, STUB])


class Model:
    """What the table should hold: every row's key, kind and record,
    and the key -> live row map."""

    def __init__(self):
        self.rows = []  # (key, kind, mass, child keys, particle masses)
        self.index = {}
        self.dead = set()

    def append(self, records, kinds):
        for record, kind in zip(records, kinds):
            row = len(self.rows)
            self.rows.append((record[0], kind, *record[1:]))
            if record[0] in self.index:
                self.dead.add(self.index[record[0]])
            self.index[record[0]] = row

    def live(self, key):
        row = self.index.get(key)
        return None if row is None or row in self.dead else row

    def fetched(self):
        return [row for row, (key, kind, *_) in enumerate(self.rows)
                if kind == REMOTE and self.live(key) == row]


def _batch(records) -> CellBatch:
    batch = CellBatch.empty(len(records))
    kids = [k for _, _, ks, _ in records for k in ks]
    parts = [p for _, _, _, ps in records for p in ps]
    batch.key[:] = [key for key, _, _, _ in records]
    batch.mass[:] = [mass for _, mass, _, _ in records]
    batch.cn[:] = [len(ks) for _, _, ks, _ in records]
    batch.cstart[:] = np.cumsum(batch.cn) - batch.cn
    batch.pn[:] = [len(ps) for _, _, _, ps in records]
    batch.pstart[:] = np.cumsum(batch.pn) - batch.pn
    batch.child_key = np.array(kids, dtype=np.uint64)
    batch.pmass = np.array(parts, dtype=np.float64)
    batch.ppos = np.repeat(batch.pmass[:, None], 3, axis=1)
    return batch


def _resolve_children(table: CellTable) -> np.ndarray:
    """Every child slot's row, as a walk finds it: the cached
    ``child_row`` unless it is unset or dead, else one batched lookup."""
    slots = np.arange(table.n_kids)
    r = table.child_row[slots]
    stale = (r < 0) | (table.kind[r] == DEAD)
    if stale.any():
        rows, there = table.lookup(table.child_key[slots[stale]])
        table.child_row[slots[stale]] = np.where(there, rows, -1)
    return table.child_row[:table.n_kids].copy()


def _check(table: CellTable, model: Model):
    assert len(table) == len(model.rows)
    probe = np.arange(0, 11, dtype=np.uint64)
    rows, found = table.lookup(probe)
    expect = [model.live(key) for key in probe.tolist()]
    assert found.tolist() == [row is not None for row in expect]
    assert rows[found].tolist() == [row for row in expect if row is not None]
    assert table.fetched().tolist() == model.fetched()
    kids = [k for _, _, _, ks, _ in model.rows for k in ks]
    resolved = [model.live(k) for k in kids]
    assert _resolve_children(table).tolist() == [-1 if r is None else r for r in resolved]
    for row, (key, _, mass, ks, ps) in enumerate(model.rows):
        assert int(table.key[row]) == key and float(table.mass[row]) == mass
        c, p = table.cstart[row], table.pstart[row]
        assert table.child_key[c:c + table.cn[row]].tolist() == list(ks)
        assert table.pmass[p:p + table.pn[row]].tolist() == list(ps)
        assert table.ppos[p:p + table.pn[row], 2].tolist() == list(ps)


RECORD = st.tuples(KEYS, st.lists(KEYS, max_size=3), st.lists(st.integers(1, 99), max_size=2))
STEP = st.tuples(st.lists(RECORD, max_size=5),
                 st.one_of(KINDS, st.lists(KINDS, min_size=5, max_size=5)))


@given(st.lists(STEP, max_size=10))
@settings(max_examples=60, deadline=None)
def test_table_answers_as_its_model(steps):
    table, model, serial = CellTable(), Model(), 0
    for batch, kind in steps:
        records = []
        for key, kids, parts in batch:
            serial += 1
            records.append((key, float(serial), kids, [float(p) for p in parts]))
        mixed = isinstance(kind, list)
        kinds = kind[:len(records)] if mixed else [kind] * len(records)
        table.append(_batch(records), np.array(kinds, dtype=np.int8) if mixed else kind)
        model.append([(k, m, tuple(ks), tuple(ps)) for k, m, ks, ps in records], kinds)
        _check(table, model)
