"""Tests for repro.core.hashtable: the key -> cell hash map."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import KeyHashTable


def _keys(values):
    return np.array(values, dtype=np.uint64)


def _vals(values):
    return np.array(values, dtype=np.int64)


class TestBasics:
    def test_insert_and_lookup(self):
        table = KeyHashTable()
        table.insert(_keys([1, 2, 3]), _vals([10, 20, 30]))
        values, found = table.lookup(_keys([2, 3, 1]))
        assert found.all()
        assert values.tolist() == [20, 30, 10]

    def test_miss_reported_not_raised(self):
        # A miss is the treecode's "non-local data" signal.
        table = KeyHashTable()
        table.insert(_keys([5]), _vals([1]))
        values, found = table.lookup(_keys([5, 6, 7]))
        assert found.tolist() == [True, False, False]

    def test_scalar_get(self):
        table = KeyHashTable()
        table.insert(_keys([42]), _vals([7]))
        assert table.get(42) == 7
        assert table.get(43) is None
        assert table.get(43, -1) == -1
        assert 42 in table
        assert 43 not in table

    def test_overwrite_semantics(self):
        table = KeyHashTable()
        table.insert(_keys([9]), _vals([1]))
        table.insert(_keys([9]), _vals([2]))
        assert table.get(9) == 2
        assert len(table) == 1

    def test_duplicate_keys_in_one_batch_last_wins(self):
        table = KeyHashTable()
        table.insert(_keys([4, 4, 4]), _vals([1, 2, 3]))
        assert table.get(4) == 3
        assert len(table) == 1

    def test_insert_returns_what_it_displaced(self):
        # An earlier value of a key, from the table or from earlier in
        # the same batch, in batch order: the rows a cell table retires.
        table = KeyHashTable()
        assert table.insert(_keys([9, 5]), _vals([1, 2])).tolist() == []
        assert table.insert(_keys([5, 7, 7, 9]), _vals([3, 4, 5, 6])).tolist() == [2, 4, 1]
        assert table.lookup(_keys([5, 7, 9]))[0].tolist() == [3, 5, 6]

    def test_zero_key_reserved(self):
        table = KeyHashTable()
        with pytest.raises(ValueError):
            table.insert(_keys([0]), _vals([1]))
        # ... and absent, in an empty table and in a full one.
        assert table.get(0) is None
        table.insert(_keys(range(1, 300)), _vals(range(1, 300)))
        assert table.lookup(_keys([0, 7, 0]))[1].tolist() == [False, True, False]
        # A batch holding key 0 is refused whole.
        with pytest.raises(ValueError):
            table.insert(_keys([400, 0]), _vals([1, 2]))
        assert 400 not in table and len(table) == 299

    def test_empty_batch(self):
        table = KeyHashTable()
        table.insert(_keys([]), _vals([]))
        values, found = table.lookup(_keys([]))
        assert values.size == 0 and found.size == 0

    def test_shape_mismatch(self):
        table = KeyHashTable()
        with pytest.raises(ValueError):
            table.insert(_keys([1, 2]), _vals([1]))


class TestGrowthAndCollisions:
    def test_growth_preserves_entries(self):
        table = KeyHashTable()
        keys = np.arange(1, 2001, dtype=np.uint64)
        table.insert(keys, keys.astype(np.int64) * 3)
        assert len(table) == 2000
        values, found = table.lookup(keys)
        assert found.all()
        assert np.array_equal(values, keys.astype(np.int64) * 3)

    def test_adversarial_same_slot_keys(self):
        # Distinct keys that agree in their low 32 bits: a hash that
        # kept only those bits would put them all in one slot.
        table = KeyHashTable()
        keys = (np.arange(1, 41, dtype=np.uint64) << np.uint64(32)) | np.uint64(0x9E3779B9)
        table.insert(keys, np.arange(keys.size, dtype=np.int64))
        values, found = table.lookup(keys)
        assert found.all()
        assert np.array_equal(values, np.arange(keys.size, dtype=np.int64))

    def test_realistic_morton_keys(self):
        rng = np.random.default_rng(11)
        from repro.core import keys_from_positions

        keys = keys_from_positions(rng.random((5000, 3)))
        keys = np.unique(keys)
        table = KeyHashTable()
        table.insert(keys, np.arange(keys.size, dtype=np.int64))
        values, found = table.lookup(keys)
        assert found.all()
        assert np.array_equal(values, np.arange(keys.size, dtype=np.int64))
        # Absent keys must all miss.
        absent = keys[: keys.size // 2] ^ np.uint64(1 << 62)
        absent = absent[~np.isin(absent, keys)]
        _, found = table.lookup(absent)
        assert not found.any()

    def test_keys_listing(self):
        table = KeyHashTable()
        table.insert(_keys([3, 1, 2]), _vals([0, 0, 0]))
        assert sorted(table.keys().tolist()) == [1, 2, 3]


class TestPropertyBased:
    @given(
        st.dictionaries(
            st.integers(min_value=1, max_value=2**63 - 1),
            st.integers(min_value=-(2**31), max_value=2**31),
            min_size=0,
            max_size=200,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_behaves_like_dict(self, mapping):
        table = KeyHashTable()
        if mapping:
            table.insert(
                np.array(list(mapping.keys()), dtype=np.uint64),
                np.array(list(mapping.values()), dtype=np.int64),
            )
        assert len(table) == len(mapping)
        for k, v in mapping.items():
            assert table.get(k) == v
        probe = np.array([1, 7, 2**62, 2**63 - 1], dtype=np.uint64)
        values, found = table.lookup(probe)
        for key, val, hit in zip(probe.tolist(), values.tolist(), found.tolist()):
            assert hit == (key in mapping)
            if hit:
                assert val == mapping[key]

    @given(st.lists(st.integers(1, 10**6), min_size=1, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_insert_idempotent_under_reinsert(self, key_list):
        keys = np.array(key_list, dtype=np.uint64)
        vals = np.arange(keys.size, dtype=np.int64)
        table = KeyHashTable()
        table.insert(keys, vals)
        table.insert(keys, vals)  # reinsert everything
        assert len(table) == len(set(key_list))
