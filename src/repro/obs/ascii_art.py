"""Generic ASCII Gantt rendering over spans.

The poor man's Vampir view, generalized: any span list renders as one
row per track with category-coded glyphs.  :func:`repro.simmpi.trace.render_timeline`
is this renderer over a run's rank-activity spans.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .model import Span

__all__ = ["render_spans", "DEFAULT_SYMBOLS"]

#: Category -> glyph.  ``compute`` overwrites anything; others only
#: fill blank cells, so compute/wait overlaps read as compute.
DEFAULT_SYMBOLS: dict[str, str] = {
    "compute": "#",
    "blocked": ".",
    "collective": ".",
    "failed": "X",
}


def render_spans(
    spans: Iterable[Span],
    elapsed: float,
    *,
    n_tracks: int | None = None,
    width: int = 72,
    symbols: Mapping[str, str] | None = None,
    header: str | None = None,
    track_label: str = "rank",
) -> str:
    """Render spans as an ASCII timeline, one row per track."""
    spans = list(spans)
    if not spans:
        return "(empty trace)"
    if elapsed <= 0:
        raise ValueError("elapsed must be positive")
    if width < 10:
        raise ValueError("width must be >= 10")
    glyphs = dict(DEFAULT_SYMBOLS)
    if symbols:
        glyphs.update(symbols)
    if n_tracks is None:
        n_tracks = max(s.track for s in spans) + 1
    if header is None:
        header = (
            f"timeline ({elapsed:.3g}s virtual, "
            "'#'=compute '.'=blocked 'X'=crash):"
        )
    lines = [header]
    for track in range(n_tracks):
        row = [" "] * width
        for s in spans:
            if s.track != track:
                continue
            lo = int(s.t_start / elapsed * width)
            if s.cat == "failed":
                row[min(lo, width - 1)] = glyphs.get("failed", "X")
                continue
            ch = glyphs.get(s.cat, ".")
            hi = max(int(s.t_end / elapsed * width), lo + 1)
            for i in range(lo, min(hi, width)):
                if row[i] == " " or ch == "#":
                    row[i] = ch
        lines.append(f"{track_label} {track:3d} |{''.join(row)}|")
    return "\n".join(lines)
