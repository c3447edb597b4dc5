"""Core instrumentation model: spans, counters, recorders.

Every measured thing in this reproduction reduces to two primitives:

* :class:`Span` — a named interval ``[t_start, t_end]`` on a *track*
  (a simulated rank, a host thread, a job lane).  Spans nest: a
  recorder's context-manager API keeps a per-track stack so children
  are always contained in their parents and siblings never overlap —
  the well-formedness :func:`validate_nesting` checks and the property
  suite pins.
* :class:`Counter` — a monotonically increasing total (bytes sent,
  interactions evaluated).  ``add`` rejects negative deltas so a
  counter read is always a valid rate numerator.

Two clocks, one recorder each.  The SimMPI engine records spans in
**virtual time** by passing explicit ``t_start``/``t_end`` to
:meth:`Recorder.add_span`, on the recorder it creates for a traced run
(``SimResult.observer``).  Everything else records **wall time**
through :mod:`repro.obs.wallclock`, whose :func:`~repro.obs.wallclock.span`
opens the context manager :meth:`Recorder.span` on the recorder
:func:`~repro.obs.wallclock.profile` installed; it reads the
recorder's clock relative to its origin.  Exporters
(:mod:`repro.obs.export`) and analyses (:mod:`repro.obs.analysis`)
don't care which — a span is a span, the one interval record of this
package.

An untraced engine run has no recorder at all: the engine touches
its ``observer`` only in a traced run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

__all__ = [
    "Span",
    "Counter",
    "Recorder",
    "validate_nesting",
]


@dataclass(frozen=True)
class Span:
    """One named, categorized interval on one track.

    ``args`` is a sorted tuple of ``(key, value)`` pairs rather than a
    dict so spans are hashable — exporter round-trip tests compare
    event *multisets*.
    """

    name: str
    t_start: float
    t_end: float
    track: int = 0
    cat: str = ""
    args: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.t_end < self.t_start:
            raise ValueError(f"span {self.name!r} ends before it starts")

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @property
    def args_dict(self) -> dict[str, Any]:
        return dict(self.args)


def _freeze_args(args: dict[str, Any] | None) -> tuple[tuple[str, Any], ...]:
    if not args:
        return ()
    return tuple(sorted(args.items()))


@dataclass
class Counter:
    """Monotone running total."""

    name: str
    value: float = 0.0

    def add(self, delta: float = 1.0) -> None:
        if delta < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (delta={delta})")
        self.value += delta


class _SpanContext:
    """Open frame of ``Recorder.span``; records the span on exit."""

    __slots__ = ("_rec", "name", "track", "cat", "_args", "_t0")

    def __init__(self, rec: "Recorder", name: str, track: int, cat: str, args: dict | None):
        self._rec = rec
        self.name = name
        self.track = track
        self.cat = cat
        self._args = args
        self._t0 = 0.0

    def __enter__(self) -> "_SpanContext":
        self._t0 = self._rec.now()
        self._rec._stacks.setdefault(self.track, []).append(self)
        return self

    def __exit__(self, *exc) -> None:
        stack = self._rec._stacks[self.track]
        if not stack or stack[-1] is not self:
            raise RuntimeError(f"span {self.name!r} closed out of order on track {self.track}")
        stack.pop()
        self._rec.add_span(
            self.name, self._t0, self._rec.now(),
            track=self.track, cat=self.cat, args=self._args,
        )


class Recorder:
    """Collects spans and counters for one observed activity.

    ``clock`` supplies wall time for the context-manager span API; the
    recorder's origin is captured at construction so recorded times
    start near zero.  Virtual-time producers bypass the clock entirely
    via :meth:`add_span`.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._origin = clock()
        self.spans: list[Span] = []
        self.counters: dict[str, Counter] = {}
        self._stacks: dict[int, list[_SpanContext]] = {}

    # -- time -----------------------------------------------------------
    def now(self) -> float:
        """Wall seconds since this recorder was created."""
        return self._clock() - self._origin

    # -- spans ----------------------------------------------------------
    def add_span(
        self,
        name: str,
        t_start: float,
        t_end: float,
        *,
        track: int = 0,
        cat: str = "",
        args: dict[str, Any] | None = None,
    ) -> None:
        """Record an explicit interval (virtual or precomputed times)."""
        self.spans.append(Span(name, t_start, t_end, track, cat, _freeze_args(args)))

    def span(self, name: str, *, track: int = 0, cat: str = "", **args: Any) -> _SpanContext:
        """Context manager: a wall-clock span on this recorder's clock."""
        return _SpanContext(self, name, track, cat, args or None)

    # -- counters -------------------------------------------------------
    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def count(self, name: str, delta: float = 1.0) -> None:
        self.counter(name).add(delta)


def _spans_of(source: Recorder | Iterable[Span]) -> list[Span]:
    """The spans of a recorder, or of any iterable of spans, as a list:
    what every analysis, exporter and report accepts as its source."""
    if isinstance(source, Recorder):
        return list(source.spans)
    return list(source)


def validate_nesting(spans: Iterable[Span], atol: float = 1e-12) -> None:
    """Raise ``ValueError`` unless spans form a forest per track.

    On every track, any two spans must be either disjoint or one
    contained in the other (to ``atol`` slack) — the invariant the
    context-manager API guarantees by construction and the property
    suite asserts.
    """
    by_track: dict[int, list[Span]] = {}
    for s in spans:
        by_track.setdefault(s.track, []).append(s)
    for track, group in by_track.items():
        group.sort(key=lambda s: (s.t_start, -s.t_end))
        stack: list[Span] = []
        for s in group:
            while stack and stack[-1].t_end <= s.t_start + atol:
                stack.pop()
            if stack and s.t_end > stack[-1].t_end + atol:
                raise ValueError(
                    f"track {track}: span {s.name!r} [{s.t_start}, {s.t_end}] "
                    f"partially overlaps {stack[-1].name!r} "
                    f"[{stack[-1].t_start}, {stack[-1].t_end}]"
                )
            stack.append(s)
