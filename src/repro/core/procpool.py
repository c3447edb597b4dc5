"""Real-core process pool with crash containment.

SimMPI simulates parallelism inside one interpreter; this module is
where the campaign layer uses *real* cores.  :func:`run_tasks` /
:class:`ProcPool` fan independent picklable tasks out over OS processes
with **errors as data**: a task that raises becomes an ``"error"``
:class:`TaskResult`, and a task whose worker dies (SIGKILL, OOM) is
retried alone in the rebuilt pool before it too becomes an error
entry.  A dying worker can therefore never corrupt or abort the merged
result — the exact contract the campaign runner and the hypothesis
suite (``tests/test_procpool_property.py``) pin.  (A force evaluation uses
the cores through threads instead: :mod:`repro.core.traversal`.)

Pool size: the ``workers=`` argument, else the usable cores
(:func:`resolve_pool_workers`, the one core-count rule of the package);
an integer (not a ``bool``), floored at 1.  With one worker everything
runs inline (a pool of one is pure overhead).
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

import multiprocessing
import os

__all__ = [
    "TaskResult",
    "ProcPool",
    "resolve_pool_workers",
    "run_tasks",
]


def resolve_pool_workers(workers: int | None = None) -> int:
    """Effective worker count (>= 1): ``workers``, else the cores this
    process may run on (its CPU affinity where the platform reports
    one, else ``os.cpu_count()``).  ``workers`` must be an integer (a
    ``bool`` is not one: ``ValueError``); 0 and below mean 1."""
    if workers is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
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
    breaks it; tasks in flight at the break are retried one at a time
    in the rebuilt pool (:meth:`imap_unordered`).  ``fork`` start method where the
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

        A task exception yields an ``"error"`` result immediately.  At
        most two tasks a worker are in flight.  A worker death breaks
        the pool under every one of them, so they cannot be told apart:
        they become suspects, the pool is rebuilt and the tasks not yet
        submitted go on in it.  Then each suspect runs as the pool's
        only task; only a task that breaks the pool while alone is
        charged, and one charged ``retries + 1`` times is reported as
        an error.  An innocent sibling is never blamed, and one
        poisoned task cannot starve the rest.
        """
        args_list = list(args_list)
        if self.workers <= 1 or len(args_list) <= 1:
            yield from _run_inline(fn, args_list)
            return
        queue = deque(range(len(args_list)))
        suspects: list[int] = []
        while queue:
            executor = self._ensure()
            futures: dict = {}
            broken = False
            while futures or (queue and not broken):
                while queue and not broken and len(futures) < 2 * self.workers:
                    i = queue.popleft()
                    try:
                        futures[executor.submit(fn, *args_list[i])] = i
                    except BrokenProcessPool:
                        queue.appendleft(i)
                        broken = True
                done, _ = wait(futures, return_when=FIRST_COMPLETED)
                for future in done:
                    i = futures.pop(future)
                    try:
                        yield TaskResult(i, "ok", future.result())
                    except BrokenProcessPool:
                        broken = True
                        suspects.append(i)
                    except Exception as exc:  # noqa: BLE001
                        yield _error_result(i, exc)
            if broken:
                self._discard()
        for i in sorted(suspects):
            yield self._run_alone(fn, i, args_list[i], retries)

    def _run_alone(self, fn: Callable, i: int, args: tuple, retries: int) -> TaskResult:
        for _ in range(retries + 1):
            try:
                return TaskResult(i, "ok", self._ensure().submit(fn, *args).result())
            except BrokenProcessPool:
                self._discard()
            except Exception as exc:  # noqa: BLE001
                return _error_result(i, exc)
        return TaskResult(i, "error", None, "BrokenProcessPool: worker died; retries exhausted")

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
