"""Wall-clock attribution: where did the real time go?

The discrete-event engine accounts *virtual* seconds exactly (and the
critical path partitions them over [0, elapsed] exactly) on the
recorder it keeps per traced run, ``SimResult.observer``.  This module
is the one recorder of *real* seconds.  :func:`profile` installs a
wall-clock :class:`~repro.obs.model.Recorder` as :data:`ACTIVE` under
one root span named ``other``; :func:`span` opens a span on it and
:func:`count` adds to one of its counters.  No function takes a
recorder: code records into whichever one is installed, and into none
when nothing is.

Span names follow the layers they time: ``gravity.*``, ``sph.*``,
``hpl.*`` and ``npb.*`` in the serial kernels and harnesses,
``simmpi.engine`` (the event loop) and ``simmpi.dispatch`` (message
matching and collective bookkeeping), ``core.parallel.admit`` (the
gather that copies a round's replied cell records out of the step's
arena), ``core.parallel.table`` (a rank's table set up for a step),
one ``core.parallel.<label>`` per compute label of the rank
programs (their own host work between yields, which the engine times;
the ``engine`` bucket, as before the split), one ``pipeline.<stage>``
per pipeline stage plus
``pipeline.checkpoint``, and ``campaign.fingerprint`` /
``campaign.compute`` / ``campaign.store`` / ``campaign.finalize``.
Only the thread that installed the recorder opens spans: the helper
threads a large force evaluation is split over open none, and the
caller's ``gravity.traversal`` and ``gravity.kernel.*`` spans time its
own run (the wait for the helpers is the enclosing span's own time).
The table is the *exclusive* ("self") seconds per span name
(:func:`repro.obs.analysis.self_seconds`): every instant of the root
span belongs to exactly one innermost span, so the table partitions
elapsed time by construction, mirroring the critical-path invariant,
and time under no span is the root's own: ``other``.
:data:`BUCKET_PREFIXES` rolls span names up into the five coarse
:data:`BUCKETS`, with ``other`` for any name no prefix claims.

A span must be exited in the frame that entered it.  Rank *programs*
are coroutines the engine interleaves, and a generator may be resumed
anywhere, so generator code must never hold a span across a yield:
the recorder's per-track stack refuses it ("closed out of order").
Spans therefore live in the engine loop, the dispatch branches, the
kernel layer and the callers of generators, all of which run to
completion.

The spans are ordinary spans: they pass
:func:`~repro.obs.model.validate_nesting`, and
:func:`~repro.obs.export.chrome_trace` writes them as the Chrome-trace
JSON every ``python -m repro.obs`` verb reads (Perfetto shows it as a
flame view), from which the same table is re-derived.

With no recorder installed, instrumented code pays nothing:

>>> with span("gravity.kernel.cells"):      # nothing ACTIVE: a no-op context
...     pass

Install one (an injected fake clock makes the charges exact; the
recorder reads it once for its origin, then once per span edge):

>>> from repro.obs.analysis import self_seconds
>>> t = iter([10.0, 10.0, 11.0, 14.0, 15.0])
>>> with profile(clock=lambda: next(t)) as rec:
...     with span("gravity.kernel.cells"):
...         pass
>>> self_seconds(rec)
{'other': 2.0, 'gravity.kernel.cells': 3.0}
>>> bucket_of("gravity.kernel.cells")
'kernel'
>>> print(format_report(self_seconds(rec)))
span                            seconds    share
gravity.kernel.cells           3.000000   60.00%
other                          2.000000   40.00%
total                          5.000000  100.00%
"""

from __future__ import annotations

import contextlib
import time
from typing import Mapping

from .model import Recorder

__all__ = [
    "BUCKETS", "BUCKET_PREFIXES", "ACTIVE", "profile", "span", "count", "bucket_of",
    "format_report",
]

#: The five coarse buckets, in report order.
BUCKETS = ("kernel", "engine", "comm", "serialization", "other")

#: Span-name prefix -> bucket, the first match wins; a name no prefix
#: matches is ``other``.
BUCKET_PREFIXES = (
    ("simmpi.engine", "engine"),
    ("simmpi.dispatch", "comm"),
    ("core.parallel.admit", "serialization"),
    ("core.parallel.", "engine"),
    ("pipeline.checkpoint", "serialization"),
    ("campaign.store", "serialization"),
    ("campaign.finalize", "serialization"),
    ("campaign.compute", "kernel"),
    ("pipeline.", "kernel"),
    ("gravity.", "kernel"),
    ("sph.", "kernel"),
    ("hpl.", "kernel"),
    ("npb.", "kernel"),
)

#: The installed wall-clock recorder, or None.  Hot paths consult it
#: through :func:`span` and :func:`count`, which cost one global load
#: when inactive.
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


def span(name: str, cat: str = "wall", **args):
    """A span on the active recorder; a shared no-op when none is."""
    rec = ACTIVE
    return rec.span(name, cat=cat, **args) if rec is not None else _INACTIVE


def count(name: str, delta: float = 1.0) -> None:
    """Add ``delta`` to a counter of the active recorder, if any."""
    rec = ACTIVE
    if rec is not None:
        rec.count(name, delta)


def bucket_of(name: str) -> str:
    """The bucket :data:`BUCKET_PREFIXES` assigns a span name."""
    return next((b for prefix, b in BUCKET_PREFIXES if name.startswith(prefix)), "other")


def format_report(table: Mapping[str, float]) -> str:
    """ASCII table of self seconds per span name, largest first."""
    total = sum(table.values())
    w = max(24, *map(len, table)) if table else 24
    lines = [f"{'span':<{w}} {'seconds':>14} {'share':>8}"]
    for name, s in sorted(table.items(), key=lambda kv: -kv[1]):
        share = 100.0 * s / total if total else 0.0
        lines.append(f"{name:<{w}} {s:>14.6f} {share:>7.2f}%")
    lines.append(f"{'total':<{w}} {total:>14.6f} {'100.00%':>8}")
    return "\n".join(lines)
