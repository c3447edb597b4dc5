"""Persistent remote-cell cache for the parallel treecode.

Each rank of the parallel hashed oct-tree keeps the remote cell records
it has fetched so a key missed in one traversal round — or one
*timestep* — need not cross the network again.  The paper's HOT library
calls this structure the hash-table cache of nonlocal data; together
with request batching it is what hides commodity-network latency
(PAPER.md §4).

The cache is a bounded LRU keyed by Morton cell key.  In the treecode
the cell data themselves are rows of the rank's
:class:`~repro.core.celltable.CellTable`, found by key through its hash
index; what lives here is the bookkeeping over them — which remote keys
are resident, in which recency order, under which branch stamp — and
the counters.  Three properties matter for correctness and the tests
pin all of them:

* **Determinism** — contents depend only on the sequence of
  ``insert``/``get`` calls, never on wall-clock time, so SimMPI replays
  are bit-identical.
* **Capacity bounds** — at most ``capacity`` entries; inserting into a
  full cache evicts the least recently used entry and counts it.
* **Safe cross-step reuse** — every entry is stamped with the owner's
  branch key and a fingerprint of that branch's underlying particle
  data.  After particles move, :meth:`retain_valid` drops exactly the
  entries whose source branch changed, so stale multipoles can never be
  served (see ``CellServer.branch_fingerprint``).

>>> cache = CellCache(capacity=2)
>>> cache.insert(5, "rec5", branch_key=1, fingerprint=b"a")
>>> cache.insert(6, "rec6", branch_key=1, fingerprint=b"a")
>>> cache.get(5)
'rec5'
>>> cache.insert(7, "rec7", branch_key=2, fingerprint=b"b")  # evicts 6 (LRU)
6
>>> cache.get(6) is None
True
>>> cache.retain_valid({1: b"CHANGED", 2: b"b"})  # branch 1 moved
>>> sorted(cache.keys())
[7]
>>> cache.stats["evictions"], cache.stats["invalidated"]
(1, 1)
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Iterable, Mapping

__all__ = ["CellCache"]


class CellCache:
    """Bounded LRU cache of remote cells (any record object per key).

    Parameters
    ----------
    capacity:
        Maximum number of entries (> 0).  ``None`` means unbounded —
        useful for tests and small runs.

    Counters (``stats`` dict, all monotonically increasing):

    ``hits`` / ``misses``
        ``get`` outcomes.
    ``inserts``
        successful ``insert`` calls (re-inserting a present key counts
        but does not grow the cache).
    ``evictions``
        entries dropped by the capacity bound.
    ``invalidated``
        entries dropped by :meth:`retain_valid` because their source
        branch changed between timesteps.
    """

    def __init__(self, capacity: int | None = None):
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive (or None for unbounded)")
        self.capacity = capacity
        self._entries: OrderedDict[int, tuple[Any, int, bytes]] = OrderedDict()
        self.stats: dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "inserts": 0,
            "evictions": 0,
            "invalidated": 0,
        }

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: int) -> bool:
        return key in self._entries

    def keys(self) -> Iterable[int]:
        return self._entries.keys()

    def get(self, key: int) -> Any | None:
        """Return the cached record for ``key`` (marking it recently
        used) or ``None``; every call counts as a hit or a miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats["misses"] += 1
            return None
        self._entries.move_to_end(key)
        self.stats["hits"] += 1
        return entry[0]

    def peek(self, key: int) -> Any | None:
        """Like :meth:`get` but touching neither LRU order nor counters."""
        entry = self._entries.get(key)
        return None if entry is None else entry[0]

    def touch(self, keys: list[int]) -> None:
        """Count a hit on every one of ``keys`` (all resident) and mark
        them recently used, in order.  An unbounded cache never reads
        its recency order, so it only counts."""
        self.stats["hits"] += len(keys)
        if self.capacity is not None:
            for key in keys:
                self._entries.move_to_end(key)

    def insert(self, key: int, record: Any, branch_key: int, fingerprint: bytes) -> int | None:
        """Store ``record`` under ``key``; if that evicts the LRU entry,
        returns the evicted key.

        ``branch_key`` is the owner's branch-cell key whose subtree
        produced this record and ``fingerprint`` that branch's data
        fingerprint at fetch time; the pair decides survival in
        :meth:`retain_valid`.
        """
        evicted = None
        if key in self._entries:
            self._entries.move_to_end(key)
        elif self.capacity is not None and len(self._entries) >= self.capacity:
            evicted = self._entries.popitem(last=False)[0]
            self.stats["evictions"] += 1
        self._entries[key] = (record, branch_key, fingerprint)
        self.stats["inserts"] += 1
        return evicted

    def retain_valid(self, branch_fingerprints: Mapping[int, bytes]) -> None:
        """Drop every entry whose source branch changed (or vanished).

        ``branch_fingerprints`` maps branch key → current fingerprint,
        as gathered from all owners at the start of a timestep.  An
        entry survives iff its stamped ``(branch_key, fingerprint)``
        still matches; matching fingerprints guarantee the branch's
        particle data — hence every record derived from it — is
        byte-identical, so surviving entries are exact, not heuristic.
        """
        stale = [
            key
            for key, (_, bkey, fp) in self._entries.items()
            if branch_fingerprints.get(bkey) != fp
        ]
        for key in stale:
            del self._entries[key]
        self.stats["invalidated"] += len(stale)

    def clear(self) -> None:
        """Drop all entries (counters are preserved)."""
        self._entries.clear()

    def snapshot_stats(self) -> dict[str, int]:
        """Copy of the counters plus the current ``size``."""
        out = dict(self.stats)
        out["size"] = len(self._entries)
        return out
