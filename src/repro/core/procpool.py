"""Real-core process pool with crash containment, and the
``multiprocess`` kernel backend built on it.

SimMPI simulates parallelism inside one interpreter; this module is
where the simulator itself uses *real* cores.  Two consumers:

* :func:`run_tasks` / :class:`ProcPool` — generic fan-out of
  independent picklable tasks over OS processes with **errors as
  data**: a task that raises becomes an ``"error"``
  :class:`TaskResult`, and a task whose worker dies (SIGKILL, OOM)
  is retried once in a fresh pool before it too becomes an error
  entry.  A dying worker can therefore never corrupt or abort the
  merged result — the exact contract the campaign runner and the
  hypothesis suite (``tests/test_procpool_property.py``) pin.
* :class:`MultiprocessBackend` — a :class:`~repro.core.backend.KernelBackend`
  registered as ``"multiprocess"`` that shards the two CSR rectangle
  kernels of :class:`~repro.core.backend.NumpyBackend` across a
  persistent pool.  Every sink belongs to exactly one rectangle per
  call and a rectangle's per-sink result is independent of how
  rectangles are batched (padding depends only on the rectangle's own
  width), so the sharded merge is **bit-identical** to the serial numpy
  backend no matter the worker count, shard order, or chunk
  boundaries.  Calls below ``min_pairs`` evaluated pairs run inline —
  process fan-out only pays above the pickling cost.

Pool size: the ``workers=`` argument, else ``os.cpu_count()``; an
integer (not a ``bool``), floored at 1.  With one worker everything
runs inline (a pool of one is pure overhead), which also makes
``backend="multiprocess"`` safe and cheap on single-core hosts.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

import multiprocessing
import numpy as np

from ..obs import wallclock
from .backend import NumpyBackend, _rect_rows

__all__ = [
    "TaskResult",
    "ProcPool",
    "resolve_pool_workers",
    "run_tasks",
    "MultiprocessBackend",
]


def resolve_pool_workers(workers: int | None = None) -> int:
    """Effective worker count (>= 1): ``workers``, else
    ``os.cpu_count()``.  ``workers`` must be an integer (a ``bool`` is
    not one: ``ValueError``); 0 and below mean 1."""
    if workers is None:
        return os.cpu_count() or 1
    if isinstance(workers, bool) or not hasattr(workers, "__index__"):
        raise ValueError(f"workers must be an integer, got {workers!r}")
    return max(1, int(workers))


@dataclass(frozen=True)
class TaskResult:
    """Outcome of one task: a value or an error, never an exception."""

    index: int
    status: str  # "ok" | "error"
    value: Any = None
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _error_result(index: int, exc: BaseException) -> TaskResult:
    return TaskResult(index, "error", None, f"{type(exc).__name__}: {exc}")


def _run_inline(fn: Callable, args_list: Sequence[tuple]) -> Iterator[TaskResult]:
    for i, args in enumerate(args_list):
        try:
            yield TaskResult(i, "ok", fn(*args))
        except Exception as exc:  # noqa: BLE001 — error becomes data
            yield _error_result(i, exc)


class ProcPool:
    """Persistent OS-process pool that survives its workers.

    The executor is created lazily and rebuilt whenever a worker death
    breaks it; tasks in flight at the break are retried (``retries``
    per task) in the fresh pool.  ``fork`` start method where the
    platform offers it: a worker starts with exactly the modules (and
    memo tables) its parent holds at the first pooled call, and imports
    for itself whatever a task needs beyond them.  The pool cannot know
    what that is; a caller that does imports it first when
    :attr:`forks` says it will be inherited
    (:func:`repro.campaign.workers.run_shards` does).
    """

    def __init__(self, workers: int | None = None, mp_context=None):
        self.workers = resolve_pool_workers(workers)
        if mp_context is None and "fork" in multiprocessing.get_all_start_methods():
            mp_context = multiprocessing.get_context("fork")
        self._mp_context = mp_context
        self._executor: ProcessPoolExecutor | None = None

    @property
    def forks(self) -> bool:
        """Whether pooled calls run in forked children of this process."""
        return (self.workers > 1 and self._mp_context is not None
                and self._mp_context.get_start_method() == "fork")

    # -- lifecycle -------------------------------------------------------
    def _ensure(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=self._mp_context
            )
        return self._executor

    def _discard(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "ProcPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- execution -------------------------------------------------------
    def imap_unordered(
        self, fn: Callable, args_list: Sequence[tuple], *, retries: int = 1
    ) -> Iterator[TaskResult]:
        """Run ``fn(*args)`` per entry, yielding results as they finish.

        A task exception yields an ``"error"`` result immediately.  A
        broken pool (worker killed) rebuilds the executor and re-runs
        every task that had no result yet; a task that breaks the pool
        ``retries + 1`` times is reported as an error, so one poisoned
        task cannot starve the rest.
        """
        args_list = list(args_list)
        if self.workers <= 1 or len(args_list) <= 1:
            yield from _run_inline(fn, args_list)
            return
        todo = list(range(len(args_list)))
        attempts = dict.fromkeys(todo, 0)
        while todo:
            executor = self._ensure()
            futures = {}
            broken = False
            try:
                for i in todo:
                    futures[executor.submit(fn, *args_list[i])] = i
            except BrokenProcessPool:
                broken = True
            redo: list[int] = []
            not_done = set(futures)
            while not_done:
                done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                for future in done:
                    i = futures[future]
                    try:
                        yield TaskResult(i, "ok", future.result())
                    except BrokenProcessPool:
                        broken = True
                        redo.append(i)
                    except Exception as exc:  # noqa: BLE001
                        yield _error_result(i, exc)
            unsubmitted = set(todo) - set(futures.values())
            redo.extend(sorted(unsubmitted))
            todo = []
            for i in redo:
                attempts[i] += 1
                if attempts[i] > retries:
                    yield TaskResult(
                        i, "error", None,
                        "BrokenProcessPool: worker died; retries exhausted",
                    )
                else:
                    todo.append(i)
            if broken:
                self._discard()

    def map(
        self, fn: Callable, args_list: Sequence[tuple], *, retries: int = 1
    ) -> list[TaskResult]:
        """Like :meth:`imap_unordered` but returned in task order —
        the deterministic merge shape callers reduce over."""
        args_list = list(args_list)
        out: list[TaskResult | None] = [None] * len(args_list)
        for result in self.imap_unordered(fn, args_list, retries=retries):
            out[result.index] = result
        return out  # type: ignore[return-value]


def run_tasks(
    fn: Callable,
    args_list: Sequence[tuple],
    *,
    workers: int | None = None,
    retries: int = 1,
) -> list[TaskResult]:
    """One-shot :class:`ProcPool` convenience: ordered errors-as-data
    results for independent tasks; serial inline when ``workers <= 1``."""
    with ProcPool(workers=workers) as pool:
        return pool.map(fn, args_list, retries=retries)


# -- multiprocess kernel backend ----------------------------------------

#: Base backend used inside workers.  Module-level so fork children
#: share it and pickled task functions resolve by reference.
_WORKER_BASE = NumpyBackend()


def _run_pickled(fn, blob):
    """Worker trampoline: args travel as one explicitly-pickled blob so
    the coordinator can *measure* marshalling (the
    ``core.procpool.pickle`` wall span) instead of hiding it in the
    executor's feeder thread."""
    return fn(*pickle.loads(blob))


def _cell_shard(pos3, starts, counts, offsets, cell_ids, com3, mass, quad6, eps2, G, pair_chunk):
    n = pos3.shape[1]
    acc = np.zeros((n, 3))
    pot = np.zeros(n)
    _WORKER_BASE.eval_cell_rects(
        pos3, starts, counts, offsets, cell_ids, com3, mass, quad6, eps2, G, acc, pot, pair_chunk
    )
    _, pids = _rect_rows(starts, counts)
    return pids, acc[pids], pot[pids]


def _direct_shard(pos3, masses, starts, counts, offsets, src_ids, eps2, G, pair_chunk):
    n = pos3.shape[1]
    acc = np.zeros((n, 3))
    pot = np.zeros(n)
    _WORKER_BASE.eval_direct_rects(
        pos3, masses, starts, counts, offsets, src_ids, eps2, G, acc, pot, pair_chunk
    )
    _, pids = _rect_rows(starts, counts)
    return pids, acc[pids], pot[pids]


def _shard_bounds(counts: np.ndarray, widths: np.ndarray, shards: int) -> list[tuple[int, int]]:
    """Split rectangles into <= ``shards`` contiguous runs of roughly
    equal evaluated-pair weight, never splitting a rectangle."""
    pairs = (counts * widths).astype(np.float64)
    cum = np.concatenate([[0.0], np.cumsum(pairs)])
    total = cum[-1]
    bounds: list[tuple[int, int]] = []
    lo = 0
    n = counts.shape[0]
    for s in range(shards):
        target = total * (s + 1) / shards
        hi = int(np.searchsorted(cum, target, side="left"))
        hi = min(max(hi, lo + 1), n)
        if lo < hi:
            bounds.append((lo, hi))
        lo = hi
        if lo >= n:
            break
    return bounds


class MultiprocessBackend(NumpyBackend):
    """Shard the rectangle kernels over real cores; inline otherwise.

    The numpy arithmetic throughout: inline calls are
    :class:`NumpyBackend`'s own, and workers run it too.  Per-rectangle
    results are independent of batching, and sinks are disjoint across
    rectangles within a call, so merging shard outputs by row is
    bit-identical to one serial call.  A worker crash mid-call falls
    back to recomputing the whole call inline — chaos can cost time,
    never correctness.
    """

    name = "multiprocess"

    #: Below this many evaluated (sink, source) pairs a call runs
    #: inline: pickling the arrays costs more than it saves.
    DEFAULT_MIN_PAIRS = 1 << 21

    def __init__(self, workers: int | None = None, min_pairs: int | None = None):
        self.workers = resolve_pool_workers(workers)
        self.min_pairs = self.DEFAULT_MIN_PAIRS if min_pairs is None else int(min_pairs)
        self._pool: ProcPool | None = None

    def _ensure_pool(self) -> ProcPool:
        if self._pool is None:
            self._pool = ProcPool(workers=self.workers)
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _sharded(self, counts, widths) -> bool:
        if self.workers <= 1:
            return False
        return int((counts * widths).sum()) >= self.min_pairs

    def _run_shards(self, fn, shard_args, acc, pot) -> bool:
        """Fan shard tasks out and add their rows into ``acc``/``pot``;
        returns False, adding nothing, when the pool path could not
        complete (caller then recomputes inline)."""
        pool = self._ensure_pool()
        try:
            with wallclock.span("core.procpool.pickle"):
                blobs = [
                    (fn, pickle.dumps(args, protocol=pickle.HIGHEST_PROTOCOL))
                    for args in shard_args
                ]
            with wallclock.span("core.procpool.map"):
                results = pool.map(_run_pickled, blobs, retries=1)
        except Exception:  # pragma: no cover - defensive
            self.close()
            return False
        if not all(r.ok for r in results):
            return False
        for r in results:
            pids, acc_rows, pot_rows = r.value
            acc[pids] += acc_rows
            pot[pids] += pot_rows
        return True

    def eval_cell_rects(self, pos3, starts, counts, offsets, cell_ids, com3, mass, quad6, eps2, G, acc, pot, pair_chunk):
        if cell_ids.size == 0:
            return
        widths = np.diff(offsets)
        if not self._sharded(counts, widths):
            super().eval_cell_rects(pos3, starts, counts, offsets, cell_ids, com3, mass, quad6, eps2, G, acc, pot, pair_chunk)
            return
        shard_args = []
        for lo, hi in _shard_bounds(counts, widths, self.workers):
            off = offsets[lo:hi + 1] - offsets[lo]
            ids = cell_ids[offsets[lo]:offsets[hi]]
            shard_args.append((pos3, starts[lo:hi], counts[lo:hi], off, ids, com3, mass, quad6, eps2, G, pair_chunk))

        if not self._run_shards(_cell_shard, shard_args, acc, pot):
            super().eval_cell_rects(pos3, starts, counts, offsets, cell_ids, com3, mass, quad6, eps2, G, acc, pot, pair_chunk)

    def eval_direct_rects(self, pos3, masses, starts, counts, offsets, src_ids, eps2, G, acc, pot, pair_chunk):
        if src_ids.size == 0:
            return
        widths = np.diff(offsets)
        if not self._sharded(counts, widths):
            super().eval_direct_rects(pos3, masses, starts, counts, offsets, src_ids, eps2, G, acc, pot, pair_chunk)
            return
        shard_args = []
        for lo, hi in _shard_bounds(counts, widths, self.workers):
            off = offsets[lo:hi + 1] - offsets[lo]
            ids = src_ids[offsets[lo]:offsets[hi]]
            shard_args.append((pos3, masses, starts[lo:hi], counts[lo:hi], off, ids, eps2, G, pair_chunk))

        if not self._run_shards(_direct_shard, shard_args, acc, pot):
            super().eval_direct_rects(pos3, masses, starts, counts, offsets, src_ids, eps2, G, acc, pot, pair_chunk)
