"""Tracing from outside the program: spans and a timing kernel backend.

Everything here is owned by the benchmark.  Spans are recorded around
calls into public ``repro`` functions; the :class:`TimingBackend` rides
the existing ``backend=`` arguments and times every kernel call without
touching the arithmetic.  Spans inside the program are a later change.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

import numpy as np

from repro.core.backend import KernelBackend, get_backend

#: Every method of the ``KernelBackend`` interface, in declaration order.
KERNEL_METHODS = (
    "eval_cells_dense",
    "eval_direct_dense",
    "eval_cell_rects",
    "eval_direct_rects",
    "segment_sum",
    "scatter_add",
    "bincount_sum",
    "scatter_min",
    "pair_within",
)


class Spans:
    """In-memory span log: (name, start, end, parent index).

    Kept in memory for the whole run and written out only at the end
    (``--out``), so recording never touches the disk while timing.
    """

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.records)
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "start": time.perf_counter(), "end": None, "parent": parent}
        self.records.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished leaf span under the currently open one."""
        parent = self._stack[-1] if self._stack else None
        self.records.append({"name": name, "start": start, "end": end, "parent": parent})

    def timed(self, name: str, fn, repeat: int = 1):
        """Call ``fn`` ``repeat`` times under spans; (median seconds, last result)."""
        seconds = []
        result = None
        for _ in range(repeat):
            with self.span(name) as record:
                result = fn()
            seconds.append(record["end"] - record["start"])
        return statistics.median(seconds), result


def _pairs_dense(sinks, sources, *_):
    return sinks.shape[0] * sources.shape[0]


def _pairs_cell_rects(pos3, starts, counts, offsets, *_):
    return int(np.dot(counts, np.diff(offsets)))


def _pairs_direct_rects(pos3, masses, starts, counts, offsets, *_):
    return int(np.dot(counts, np.diff(offsets)))


#: (sink, source) pairs evaluated by one call of each force kernel; the
#: reductions evaluate no pairs.
_PAIRS = {
    "eval_cells_dense": _pairs_dense,
    "eval_direct_dense": _pairs_dense,
    "eval_cell_rects": _pairs_cell_rects,
    "eval_direct_rects": _pairs_direct_rects,
}


class TimingBackend(KernelBackend):
    """Delegating backend: per-method seconds, calls and pairs.

    Every call goes verbatim to the wrapped backend, so results are
    bit-identical to it.  Pairs are counted outside the timed interval.
    """

    def __init__(self, spans: Spans | None = None, base=None):
        self.base = get_backend(base)
        self.name = f"perfbench+{self.base.name}"
        self.spans = spans
        self.reset()

    def reset(self) -> None:
        self.seconds = dict.fromkeys(KERNEL_METHODS, 0.0)
        self.calls = dict.fromkeys(KERNEL_METHODS, 0)
        self.pairs = 0

    @property
    def kernel_s(self) -> float:
        return sum(self.seconds.values())

    @property
    def total_calls(self) -> int:
        return sum(self.calls.values())


def _delegate(method: str):
    count_pairs = _PAIRS.get(method)

    def call(self, *args, **kwargs):
        target = getattr(self.base, method)
        t0 = time.perf_counter()
        try:
            return target(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.seconds[method] += t1 - t0
            self.calls[method] += 1
            if count_pairs is not None:
                self.pairs += count_pairs(*args)
            if self.spans is not None:
                self.spans.add(f"core.backend.{method}", t0, t1)

    call.__name__ = method
    return call


for _method in KERNEL_METHODS:
    setattr(TimingBackend, _method, _delegate(_method))
del _method
