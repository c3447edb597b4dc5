"""The key -> cell hash table that gives the Hashed Oct-Tree its name.

Section 4.2: *"A hash table is used in order to translate the key into
a pointer to the location where the cell data are stored.  This level
of indirection through a hash table can also be used to catch accesses
to non-local data, and allows us to request and receive data from other
processors using the global key name space."*

:class:`KeyHashTable` is that table as a Python dict behind a batch
interface: keys and values go in and come out as NumPy arrays, a batch
at a time.  The batches a traversal asks are small (a frontier of a few
dozen keys), and at that size one pass of dict probes in C beats any
vectorized probing over arrays.  Lookup of an absent key is not an
error: it returns a miss mask, which is exactly the "catch" mechanism
the parallel traversal uses to detect that a cell lives on another
processor.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

__all__ = ["KeyHashTable"]


class KeyHashTable:
    """Hash map from uint64 Morton keys to int64 values.

    Duplicate inserts overwrite (last write wins), matching the
    treecode's use where a cell's slot is updated as data arrives from
    remote processors.  Key 0 is refused: no Morton key is 0, all carry
    the placeholder bit.

    >>> table = KeyHashTable()
    >>> table.insert(np.array([9, 10], dtype=np.uint64), np.array([0, 1]))
    array([], dtype=int64)
    >>> table.insert(np.array([9], dtype=np.uint64), np.array([2]))  # 9 -> 0 displaced
    array([0])
    >>> values, found = table.lookup(np.array([10, 11, 9], dtype=np.uint64))
    >>> found, values[found]
    (array([ True, False,  True]), array([1, 2]))
    """

    __slots__ = ("_map",)

    def __init__(self):
        self._map: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._map)

    def insert(self, keys: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Insert (or overwrite) a batch of key -> value mappings.

        Returns the values the batch displaced, in batch order: a key's
        earlier value, whether it was in the table before or came
        earlier in the same batch.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        values = np.asarray(values, dtype=np.int64)
        if keys.shape != values.shape or keys.ndim != 1:
            raise ValueError("keys and values must be matching 1-D arrays")
        listed = keys.tolist()
        if 0 in listed:
            raise ValueError("key 0 is reserved (Morton keys always carry the placeholder bit)")
        index, get, displaced = self._map, self._map.get, []
        for key, value in zip(listed, values.tolist()):
            old = get(key)
            if old is not None:
                displaced.append(old)
            index[key] = value
        return np.array(displaced, dtype=np.int64)

    def lookup(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batch lookup: ``(values, found)`` arrays.

        ``values[i]`` is meaningful only where ``found[i]`` (a miss
        reads 0); misses are the non-local-data signal in the parallel
        traversal.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.ndim != 1:
            raise ValueError("keys must be a 1-D array")
        listed, n = keys.tolist(), keys.shape[0]
        found = np.fromiter(map(self._map.__contains__, listed), dtype=np.bool_, count=n)
        values = np.fromiter(map(self._map.get, listed, repeat(0, n)), dtype=np.int64, count=n)
        return values, found

    def get(self, key: int, default: int | None = None) -> int | None:
        """Scalar convenience lookup."""
        return self._map.get(int(key), default)

    def __contains__(self, key: int) -> bool:
        return int(key) in self._map

    def keys(self) -> np.ndarray:
        """All stored keys (in first-insertion order)."""
        return np.fromiter(self._map, dtype=np.uint64, count=len(self._map))
