"""Checkpoint data plane for resilient SimMPI runs.

Two layers:

* :class:`CheckpointStore` — an on-disk epoch directory tree built on
  :mod:`repro.core.snapshot` (checksummed ``.npy`` dumps, §4.3's
  parallel-local-disk strategy) with a **two-phase commit**: every rank
  writes its snapshot under ``epoch_NNNN/rank_NNN/``, and only after a
  barrier does rank 0 drop the ``COMMIT`` marker.  A crash anywhere
  before the marker leaves a torn epoch that restart simply ignores, so
  recovery always starts from a globally consistent cut.
* :class:`Checkpointer` — the rank-facing collective API.  Rank
  programs call ``yield from ckpt.save(comm, arrays, meta)``; the save
  is gated by the checkpoint interval (Young's interval, typically —
  see :func:`repro.cluster.checkpoint.young_interval_seconds`), charges
  the node's real local-disk write time into virtual time, and agrees
  across ranks by allreduce so no rank dumps alone.

The store holds real files with real checksums: the same corruption
detection the production snapshot path has also guards restart.
"""

from __future__ import annotations

import json
import os
import re
import shutil
from typing import Any, Generator

import numpy as np

from ..core.snapshot import (
    Snapshot,
    SnapshotError,
    read_snapshot,
    snapshot_nbytes,
    write_snapshot,
)
from ..machine.node import NodeSpec, SPACE_SIMULATOR_NODE
from ..simmpi.api import MAX as MPI_MAX
from ..simmpi.api import Comm

__all__ = ["CheckpointStore", "Checkpointer"]

_COMMIT = "COMMIT"
_EPOCH_RE = re.compile(r"^epoch_(\d{4,})$")


class CheckpointStore:
    """Epoch-structured checkpoint directory with two-phase commit."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    # -- paths ----------------------------------------------------------
    def epoch_dir(self, epoch: int) -> str:
        return os.path.join(self.root, f"epoch_{epoch:04d}")

    def rank_dir(self, epoch: int, rank: int) -> str:
        return os.path.join(self.epoch_dir(epoch), f"rank_{rank:03d}")

    def _commit_path(self, epoch: int) -> str:
        return os.path.join(self.epoch_dir(epoch), _COMMIT)

    # -- write side -----------------------------------------------------
    def write_rank(
        self, epoch: int, rank: int, arrays: dict[str, np.ndarray], meta: dict | None = None
    ) -> int:
        """Write one rank's snapshot for ``epoch``; returns bytes written."""
        write_snapshot(self.rank_dir(epoch, rank), arrays, meta)
        return snapshot_nbytes(arrays)

    def commit(self, epoch: int, meta: dict | None = None) -> None:
        """Drop the commit marker: the epoch is now the restart point."""
        path = self._commit_path(epoch)
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump({"epoch": epoch, "meta": dict(meta or {})}, fh)
        os.replace(tmp, path)

    # -- read side ------------------------------------------------------
    def epochs(self) -> list[int]:
        """All epoch directories present (committed or torn), sorted."""
        out = []
        for name in os.listdir(self.root):
            m = _EPOCH_RE.match(name)
            if m:
                out.append(int(m.group(1)))
        return sorted(out)

    def latest_committed(self) -> int | None:
        """Newest epoch with a COMMIT marker, or None if no restart point."""
        for epoch in reversed(self.epochs()):
            if os.path.exists(self._commit_path(epoch)):
                return epoch
        return None

    def commit_meta(self, epoch: int) -> dict:
        with open(self._commit_path(epoch)) as fh:
            return json.load(fh)["meta"]

    def load_rank(self, epoch: int, rank: int) -> Snapshot:
        """Load (and checksum-verify) one rank's committed snapshot."""
        if not os.path.exists(self._commit_path(epoch)):
            raise SnapshotError(f"epoch {epoch} was never committed; refusing torn restart")
        return read_snapshot(self.rank_dir(epoch, rank))

    # -- maintenance ----------------------------------------------------
    def prune(self, keep_last: int = 2) -> list[int]:
        """Drop superseded epochs, keeping the newest ``keep_last``
        committed ones; returns the epochs removed.

        Torn epochs (no COMMIT marker) older than the newest kept epoch
        are removed too — they can never become a restart point.  A
        torn epoch *newer* than every committed one is left alone: with
        a single writer it is the epoch currently being written.
        Callers that checkpoint every unit of progress use this to
        keep disk usage bounded by ``keep_last`` epochs.
        """
        if keep_last < 1:
            raise ValueError("keep_last must be >= 1")
        committed = [e for e in self.epochs() if os.path.exists(self._commit_path(e))]
        if not committed:
            return []
        keep = set(committed[-keep_last:])
        newest_kept = max(keep)
        removed = []
        for epoch in self.epochs():
            if epoch in keep or epoch > newest_kept:
                continue
            shutil.rmtree(self.epoch_dir(epoch), ignore_errors=True)
            removed.append(epoch)
        return removed


class Checkpointer:
    """Collective checkpoint/restore facade handed to rank programs.

    One instance is shared by every rank of one engine attempt (SimMPI
    runs in a single process).  All cross-rank agreement goes through
    real collectives, so per-rank bookkeeping is keyed by rank and the
    object never needs locking.
    """

    def __init__(
        self,
        store: CheckpointStore,
        n_ranks: int,
        *,
        interval_s: float = 0.0,
        node: NodeSpec = SPACE_SIMULATOR_NODE,
        start_epoch: int = 0,
        restored: list[Snapshot | None] | None = None,
    ):
        if n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        if interval_s < 0:
            raise ValueError("interval_s must be non-negative")
        self.store = store
        self.n_ranks = n_ranks
        self.interval_s = interval_s
        self.node = node
        self.start_epoch = start_epoch
        self._restored = restored if restored is not None else [None] * n_ranks
        self._next_epoch = [start_epoch] * n_ranks
        self._last_save_t = [0.0] * n_ranks
        self.dump_seconds_total = 0.0

    # -- restart side ---------------------------------------------------
    def restored(self, rank: int) -> Snapshot | None:
        """This rank's committed snapshot from the previous attempt."""
        return self._restored[rank]

    @property
    def checkpoints_written(self) -> int:
        """Committed epochs produced through this checkpointer."""
        return max(self._next_epoch) - self.start_epoch

    # -- save side ------------------------------------------------------
    def dump_time_s(self, nbytes: int) -> float:
        """Virtual cost of dumping ``nbytes`` to the node's local disk."""
        return self.node.disk.write_time_s(nbytes / 1e6)

    def save(
        self,
        comm: Comm,
        arrays: dict[str, np.ndarray],
        meta: dict | None = None,
        force: bool = False,
    ) -> Generator[Any, Any, bool]:
        """Collective checkpoint; returns True if a dump happened.

        Every rank must call this at the same point in its program (it
        contains collectives).  The dump is taken when any rank's clock
        has advanced ``interval_s`` past its last checkpoint — ranks
        agree by allreduce, so clock skew cannot tear an epoch — or when
        ``force`` is set.  The write charges the local-disk time into
        the rank's virtual clock; rank 0 commits after the barrier.
        """
        rank = comm.rank
        now = yield comm.now()
        due = force or (now - self._last_save_t[rank] >= self.interval_s)
        agreed = yield comm.allreduce(1 if due else 0, op=MPI_MAX)
        if not agreed:
            return False
        epoch = self._next_epoch[rank]
        self._next_epoch[rank] = epoch + 1
        nbytes = self.store.write_rank(epoch, rank, arrays, meta)
        dump_s = self.dump_time_s(nbytes)
        self.dump_seconds_total += dump_s
        yield comm.elapse(dump_s, label="checkpoint-dump")
        yield comm.barrier()
        if rank == 0:
            # Reached only when every rank survived its dump: the commit
            # point of the two-phase protocol.
            self.store.commit(epoch, meta)
        self._last_save_t[rank] = yield comm.now()
        return True
