"""Wall-clock attribution: where did the real time go?

The discrete-event engine accounts *virtual* seconds exactly (and the
PR-3 critical path partitions them over [0, elapsed] exactly); this
module does the same for *real* seconds with the instrument the rest
of :mod:`repro.obs` already uses.  :func:`profile` installs a
wall-clock :class:`~repro.obs.model.Recorder` as :data:`ACTIVE` under
one root span named ``other``, and :func:`bucket` opens a span of the
given name on it.  The bucket table is the *exclusive* ("self") seconds
per span name (:func:`repro.obs.analysis.self_seconds`): every instant
of the root span belongs to exactly one innermost span, so the table
partitions elapsed time by construction, mirroring the critical-path
invariant, and time under no bucket is the root's own: ``other``.

Buckets used by the instrumented call sites:

* ``kernel`` — batched force/SPH kernels (via
  :class:`repro.core.backend_wall.WallBackend`) and multiprocess shard
  execution.
* ``engine`` — the SimMPI event loop: scheduling plus all rank host
  code not claimed by a deeper bucket.
* ``comm`` — engine-side message matching and collective bookkeeping.
* ``serialization`` — the gather that copies a round's replied cell
  records out of the step's arena, and process-pool argument
  marshalling.
* ``other`` — everything outside the instrumented regions (setup,
  result assembly).

A bucket must be exited in the frame that entered it.  Rank *programs*
are coroutines the engine interleaves, so generator code must never
hold a bucket across a yield: the recorder's per-track stack refuses
it ("closed out of order").  The instrumentation therefore lives in
the engine loop, the dispatch branches, and the kernel layer, all of
which run to completion.

The spans are ordinary spans: they pass
:func:`~repro.obs.model.validate_nesting`, and
:func:`~repro.obs.export.chrome_trace` writes them as the Chrome-trace
JSON every ``python -m repro.obs`` verb reads (Perfetto shows it as a
flame view), from which the same table is re-derived.

With no recorder installed, instrumented code pays nothing:

>>> with bucket("kernel"):      # nothing ACTIVE: a no-op context
...     pass

Install one (an injected fake clock makes the charges exact; the
recorder reads it once for its origin, then once per span edge):

>>> from repro.obs.analysis import self_seconds
>>> t = iter([10.0, 10.0, 11.0, 14.0, 15.0])
>>> with profile(clock=lambda: next(t)) as rec:
...     with bucket("kernel"):
...         pass
>>> self_seconds(rec)
{'other': 2.0, 'kernel': 3.0}
>>> print(format_report(self_seconds(rec)))
bucket              seconds    share
kernel             3.000000   60.00%
other              2.000000   40.00%
total              5.000000  100.00%
"""

from __future__ import annotations

import contextlib
import time
from typing import Mapping

from .model import Recorder

__all__ = ["BUCKETS", "ACTIVE", "profile", "bucket", "format_report"]

#: Canonical bucket names, in report order.  A span may carry any
#: name; these are the ones the instrumented hot paths charge.
BUCKETS = ("kernel", "engine", "comm", "serialization", "other")

#: The installed wall-clock recorder, or None.  Hot paths consult it
#: through :func:`bucket`, which costs one global load when inactive.
ACTIVE: Recorder | None = None

_INACTIVE = contextlib.nullcontext()


@contextlib.contextmanager
def profile(clock=time.perf_counter):
    """Install a fresh recorder as :data:`ACTIVE` for the duration,
    inside the root span ``other`` that bounds what is attributed."""
    global ACTIVE
    rec = Recorder(clock=clock)
    prev, ACTIVE = ACTIVE, rec
    try:
        with rec.span("other", cat="wall"):
            yield rec
    finally:
        ACTIVE = prev


def bucket(name: str):
    """A span on the active recorder; a shared no-op when none is."""
    rec = ACTIVE
    return rec.span(name, cat="wall") if rec is not None else _INACTIVE


def format_report(table: Mapping[str, float]) -> str:
    """ASCII table of self seconds per bucket, largest first."""
    total = sum(table.values())
    lines = [f"{'bucket':<14} {'seconds':>12} {'share':>8}"]
    for name, s in sorted(table.items(), key=lambda kv: -kv[1]):
        share = 100.0 * s / total if total else 0.0
        lines.append(f"{name:<14} {s:>12.6f} {share:>7.2f}%")
    lines.append(f"{'total':<14} {total:>12.6f} {'100.00%':>8}")
    return "\n".join(lines)
