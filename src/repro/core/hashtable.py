"""The key -> cell hash table that gives the Hashed Oct-Tree its name.

Section 4.2: *"A hash table is used in order to translate the key into
a pointer to the location where the cell data are stored.  This level
of indirection through a hash table can also be used to catch accesses
to non-local data, and allows us to request and receive data from other
processors using the global key name space."*

:class:`KeyHashTable` is an open-addressing (linear probing) table over
NumPy arrays, with batch insert/lookup vectorized across probe rounds —
a faithful stand-in for the C original's performance structure.  Lookup
of an absent key is not an error: it returns a miss mask, which is
exactly the "catch" mechanism the parallel traversal uses to detect
that a cell lives on another processor.
"""

from __future__ import annotations

import numpy as np

__all__ = ["KeyHashTable"]

_U = np.uint64

#: Fibonacci-style 64-bit multiplicative hashing constant.
_HASH_MULT = _U(0x9E3779B97F4A7C15)

#: Sentinel for an empty slot (no valid Morton key is 0: all carry the
#: placeholder bit).
_EMPTY = _U(0)


class KeyHashTable:
    """Open-addressing hash map from uint64 Morton keys to int64 values.

    Grows automatically past ``max_load`` occupancy.  Duplicate inserts
    overwrite (last write wins), matching the treecode's use where a
    cell's slot is updated as data arrives from remote processors.
    """

    def __init__(self, capacity: int = 1024, max_load: float = 0.65):
        if capacity < 8:
            capacity = 8
        if not 0.1 <= max_load <= 0.9:
            raise ValueError(f"max_load must be in [0.1, 0.9], got {max_load}")
        self._bits = max(3, int(np.ceil(np.log2(capacity))))
        self.max_load = max_load
        self._alloc(self._bits)

    def _alloc(self, bits: int) -> None:
        self._bits = bits
        size = 1 << bits
        self._keys = np.zeros(size, dtype=np.uint64)
        self._values = np.zeros(size, dtype=np.int64)
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def capacity(self) -> int:
        return self._keys.shape[0]

    @property
    def load_factor(self) -> float:
        return self._count / self.capacity

    def _slots(self, keys: np.ndarray) -> np.ndarray:
        shift = _U(64 - self._bits)
        return ((keys * _HASH_MULT) >> shift).astype(np.int64)

    def insert(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Insert (or overwrite) a batch of key -> value mappings."""
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        values = np.ascontiguousarray(values, dtype=np.int64)
        if keys.shape != values.shape or keys.ndim != 1:
            raise ValueError("keys and values must be matching 1-D arrays")
        if keys.size == 0:
            return
        if np.any(keys == _EMPTY):
            raise ValueError("key 0 is reserved (Morton keys always carry the placeholder bit)")
        while (self._count + keys.size) / self.capacity > self.max_load:
            self._grow()
        self._place(keys, values)

    def _grow(self) -> None:
        old_keys, old_values = self._keys, self._values
        live = old_keys != _EMPTY
        self._alloc(self._bits + 1)
        self._place(old_keys[live], old_values[live])

    def _place(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Claim-and-check probing, a whole batch per round.

        Every pending key writes itself into its slot if the slot is
        empty or already its own, then reads the slot back: whoever
        finds its key there holds it (of several new keys after one
        empty slot, the last writer) and stores its value; the others
        probe on.  Duplicates of one key share a slot, and the last
        one's value stands: overwrite semantics without sorting.
        """
        slots = self._slots(keys)
        pending = np.arange(keys.size)
        mask = np.int64(self.capacity - 1)
        while pending.size:
            s, k = slots[pending], keys[pending]
            held = self._keys[s]
            claim = (held == _EMPTY) | (held == k)
            self._keys[s[claim]] = k[claim]
            won = self._keys[s] == k
            self._values[s[won]] = values[pending[won]]
            pending = pending[~won]
            slots[pending] = (slots[pending] + 1) & mask
        self._count = int(np.count_nonzero(self._keys))

    def lookup(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batch lookup: ``(values, found)`` arrays.

        ``values[i]`` is meaningful only where ``found[i]``; misses are
        the non-local-data signal in the parallel traversal.
        """
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        if keys.ndim != 1:
            raise ValueError("keys must be a 1-D array")
        # The first probe answers most keys: take it for the whole batch
        # at once, then keep probing only for the keys that ran into
        # another key's slot.  Probing ends at an empty slot: absent.
        # (The reserved key 0 is absent, not "found" in an empty slot.)
        slots = self._slots(keys)
        slot_keys = self._keys[slots]
        live = slot_keys != _EMPTY
        found = (slot_keys == keys) & live
        values = self._values[slots]
        if found.all():
            return values, found
        pending = np.flatnonzero(~found & live)
        mask = np.int64(self.capacity - 1)
        while pending.size:
            s = slots[pending] = (slots[pending] + 1) & mask
            slot_keys = self._keys[s]
            live = slot_keys != _EMPTY
            hit = (slot_keys == keys[pending]) & live
            values[pending[hit]] = self._values[s[hit]]
            found[pending[hit]] = True
            pending = pending[~hit & live]
        return values, found

    def get(self, key: int, default: int | None = None) -> int | None:
        """Scalar convenience lookup."""
        values, found = self.lookup(np.array([key], dtype=np.uint64))
        if found[0]:
            return int(values[0])
        return default

    def __contains__(self, key: int) -> bool:
        return self.get(key) is not None

    def keys(self) -> np.ndarray:
        """All stored keys (unordered)."""
        return self._keys[self._keys != _EMPTY].copy()
