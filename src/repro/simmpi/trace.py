"""ASCII timelines and per-rank utilization of SimMPI runs.

The engine records per-rank activity as :class:`repro.obs.Span`
intervals (``track`` = rank, ``name`` = phase label or wait reason,
``cat`` one of ``compute``, ``blocked``, ``collective``, ``failed``),
and ``SimResult.trace`` is that span list.  This module reads it two
ways: the Gantt-style ASCII timeline (the poor man's Vampir/Jumpshot,
which is what one actually stared at in 2003) and the per-rank
compute / blocked / idle fractions.  A ``collective`` wait is a
blocked interval in both.

Usage::

    result = run(program, 8, cost)
    print(render_timeline(result.trace, result.elapsed))

For richer views (Perfetto-loadable Chrome traces, flat metrics) use
``result.observer`` with :func:`repro.obs.chrome_trace` /
:func:`repro.obs.metrics`.
"""

from __future__ import annotations

from typing import Iterable

from ..obs import DEFAULT_SYMBOLS, Span, render_spans

__all__ = ["render_timeline", "utilization"]


def utilization(spans: Iterable[Span], elapsed: float, n_ranks: int) -> list[dict]:
    """Per-rank breakdown: compute / blocked / idle fractions.

    Single pass over the spans grouped by rank (spans on tracks outside
    ``[0, n_ranks)`` are ignored).  A zero-elapsed run — nothing ever
    happened — has utilization 0.0 across the board rather than a
    division error; negative elapsed is still rejected.
    """
    if elapsed < 0:
        raise ValueError("elapsed must be non-negative")
    if elapsed == 0:
        return [
            {"rank": rank, "compute": 0.0, "blocked": 0.0, "idle": 0.0}
            for rank in range(n_ranks)
        ]
    compute = [0.0] * n_ranks
    blocked = [0.0] * n_ranks
    for s in spans:
        if 0 <= s.track < n_ranks:
            if s.cat == "compute":
                compute[s.track] += s.duration
            elif s.cat in ("blocked", "collective"):
                blocked[s.track] += s.duration
    return [
        {
            "rank": rank,
            "compute": compute[rank] / elapsed,
            "blocked": blocked[rank] / elapsed,
            "idle": max(1.0 - (compute[rank] + blocked[rank]) / elapsed, 0.0),
        }
        for rank in range(n_ranks)
    ]


def render_timeline(
    spans: Iterable[Span], elapsed: float, n_ranks: int | None = None, width: int = 72
) -> str:
    """ASCII Gantt chart: '#' compute, '.' blocked, 'X' crash, ' ' idle.

    Spans of other categories (a shared recorder may hold some) are not
    rank activity and are left out.
    """
    return render_spans(
        [s for s in spans if s.cat in DEFAULT_SYMBOLS],
        elapsed, n_tracks=n_ranks, width=width,
    )
