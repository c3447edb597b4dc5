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

For the full timeline (a Chrome trace that Perfetto draws) and the
text report use ``result.observer`` with :func:`repro.obs.chrome_trace`
and ``python -m repro.obs analyze``.
"""

from __future__ import annotations

from typing import Iterable

from ..obs import Span

__all__ = ["render_timeline", "utilization"]

#: Category -> timeline glyph of the rank activity the engine records.
_GLYPHS = {"compute": "#", "blocked": ".", "collective": ".", "failed": "X"}


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

    Compute overwrites a cell a wait already marked, so a cell holding
    both reads as compute.  Spans of other categories (a shared
    recorder may hold some) are not rank activity and are left out.
    """
    spans = [s for s in spans if s.cat in _GLYPHS]
    if not spans:
        return "(empty trace)"
    if elapsed <= 0:
        raise ValueError("elapsed must be positive")
    if width < 10:
        raise ValueError("width must be >= 10")
    if n_ranks is None:
        n_ranks = max(s.track for s in spans) + 1
    lines = [f"timeline ({elapsed:.3g}s virtual, '#'=compute '.'=blocked 'X'=crash):"]
    for rank in range(n_ranks):
        row = [" "] * width
        for s in spans:
            if s.track != rank:
                continue
            lo = int(s.t_start / elapsed * width)
            if s.cat == "failed":
                row[min(lo, width - 1)] = "X"
                continue
            ch = _GLYPHS[s.cat]
            hi = max(int(s.t_end / elapsed * width), lo + 1)
            for i in range(lo, min(hi, width)):
                if row[i] == " " or ch == "#":
                    row[i] = ch
        lines.append(f"rank {rank:3d} |{''.join(row)}|")
    return "\n".join(lines)
