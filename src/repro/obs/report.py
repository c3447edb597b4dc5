"""Self-contained HTML run reports: SVG timeline + analysis tables.

:func:`html_report` renders one recorded run as a single HTML file with
**no external assets** — inline CSS, inline SVG — so it can be opened
straight from disk or attached to a CI build.  It embeds:

* a per-rank SVG timeline (the Vampir view: compute / blocked /
  collective marks, critical path outlined underneath);
* the wait-state breakdown, load-imbalance table, and — when phase
  predictions are supplied — the perf-model attribution table from
  :mod:`repro.obs.analysis`;
* counter totals and, optionally, a bench-history comparison from
  :mod:`repro.obs.history`.

Every value shown in the SVG is also present in an HTML table, and
category identity is carried by the legend text and per-mark tooltips,
never by color alone.
"""

from __future__ import annotations

import html
from typing import Any, Iterable, Mapping

from .analysis import (
    PathSegment,
    attribute_phases,
    classify_waits,
    critical_path,
    critical_path_summary,
    load_imbalance,
    wait_summary,
)
from .model import Recorder, Span, _spans_of

__all__ = [
    "svg_timeline",
    "svg_sparkline",
    "html_report",
    "fleet_report",
    "write_report",
    "write_fleet_report",
    "CATEGORY_COLORS",
    "WAIT_BAR_COLORS",
]

#: Category -> (light, dark) fill; a validated categorical palette
#: (blue/orange/aqua), reserved red for crashes, neutral gray for
#: untracked time.  Identity is never color-alone: the legend and
#: per-mark tooltips name every category.
CATEGORY_COLORS: dict[str, tuple[str, str]] = {
    "compute": ("#2a78d6", "#3987e5"),
    "blocked": ("#eb6834", "#d95926"),
    "collective": ("#1baf7a", "#199e70"),
    "failed": ("#e34948", "#e66767"),
    "other": ("#9a9890", "#6f6e68"),
}

_CSS = """
:root { color-scheme: light dark; }
body {
  font: 14px/1.45 system-ui, sans-serif;
  margin: 2rem auto; max-width: 72rem; padding: 0 1rem;
  background: #fcfcfb; color: #0b0b0b;
}
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; margin: 0.5rem 0; }
th, td { padding: 0.25rem 0.7rem; text-align: right; }
th { border-bottom: 1px solid #52514e; color: #52514e; font-weight: 600; }
td:first-child, th:first-child { text-align: left; }
tr:nth-child(even) td { background: #f0efec; }
.legend { display: flex; gap: 1.2rem; flex-wrap: wrap; margin: 0.4rem 0; color: #52514e; }
.legend span { display: inline-flex; align-items: center; gap: 0.35rem; }
.swatch { width: 0.85rem; height: 0.85rem; border-radius: 3px; display: inline-block; }
.muted { color: #52514e; }
.bad { color: #b3261e; font-weight: 600; }
.ok { color: #1d6f42; font-weight: 600; }
svg text { font: 11px system-ui, sans-serif; fill: #52514e; }
@media (prefers-color-scheme: dark) {
  body { background: #1a1a19; color: #ffffff; }
  th { border-color: #c3c2b7; color: #c3c2b7; }
  tr:nth-child(even) td { background: #262624; }
  .legend, .muted { color: #c3c2b7; }
  .bad { color: #e66767; } .ok { color: #54b47e; }
  svg text { fill: #c3c2b7; }
}
"""


def _fill(cat: str, dark: bool = False) -> str:
    light, dk = CATEGORY_COLORS.get(cat, CATEGORY_COLORS["other"])
    return dk if dark else light


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return html.escape(str(value))


def _table(headers: list[str], rows: list[list[Any]]) -> str:
    head = "".join(f"<th>{html.escape(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{_fmt(v)}</td>" for v in row) + "</tr>"
        for row in rows
    )
    return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"


def svg_timeline(
    source: Recorder | Iterable[Span],
    elapsed: float | None = None,
    *,
    path: Iterable[PathSegment] | None = None,
    width: int = 960,
    row_h: int = 20,
    track_names: Mapping[int, str] | None = None,
) -> str:
    """Inline SVG Gantt: one lane per track, category-colored marks.

    When ``path`` (critical-path segments) is given, the path is drawn
    as a connected underline hopping between lanes.  Every mark carries
    a ``<title>`` tooltip naming the span, its category, and duration.
    """
    spans = _spans_of(source)
    if elapsed is None:
        elapsed = max((s.t_end for s in spans), default=0.0)
    if not spans or elapsed <= 0:
        return "<p class='muted'>(empty trace)</p>"
    tracks = sorted({s.track for s in spans})
    lane = {tr: i for i, tr in enumerate(tracks)}
    label_w, pad = 72, 6
    plot_w = width - label_w - pad
    height = len(tracks) * (row_h + 4) + 24

    def x(t: float) -> float:
        return label_w + plot_w * t / elapsed

    parts = [
        f"<svg viewBox='0 0 {width} {height}' width='100%' "
        "xmlns='http://www.w3.org/2000/svg' role='img' "
        "aria-label='per-rank timeline'>"
    ]
    for tr in tracks:
        y = lane[tr] * (row_h + 4) + 14
        name = (track_names or {}).get(tr, f"rank {tr}")
        parts.append(
            f"<text x='{label_w - 8}' y='{y + row_h * 0.7:.1f}' "
            f"text-anchor='end'>{html.escape(name)}</text>"
        )
    for s in sorted(spans, key=lambda s: (s.track, s.t_start)):
        cat = s.cat if s.cat in CATEGORY_COLORS else (
            "other" if s.cat not in ("compute", "blocked", "collective", "failed")
            else s.cat
        )
        y = lane[s.track] * (row_h + 4) + 14
        x0, x1 = x(s.t_start), x(s.t_end)
        w = max(x1 - x0, 0.75)
        tip = html.escape(
            f"{s.name} [{s.cat or 'span'}] {s.duration:.6g}s "
            f"({s.t_start:.6g} - {s.t_end:.6g}) rank {s.track}"
        )
        parts.append(
            f"<rect x='{x0:.2f}' y='{y}' width='{w:.2f}' height='{row_h}' "
            f"rx='3' fill='{_fill(cat)}' stroke='#fcfcfb' stroke-width='1'>"
            f"<title>{tip}</title></rect>"
        )
    if path:
        pts = []
        for seg in path:
            y = lane.get(seg.track, 0) * (row_h + 4) + 14 + row_h + 2
            pts.append((x(seg.t_start), y))
            pts.append((x(seg.t_end), y))
        poly = " ".join(f"{px:.2f},{py}" for px, py in pts)
        parts.append(
            f"<polyline points='{poly}' fill='none' stroke='#0b0b0b' "
            "stroke-width='1.8' stroke-dasharray='5,3' opacity='0.75'>"
            "<title>critical path</title></polyline>"
        )
    axis_y = len(tracks) * (row_h + 4) + 14
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(
            f"<text x='{x(frac * elapsed):.1f}' y='{axis_y + 8}' "
            f"text-anchor='middle'>{frac * elapsed:.4g}s</text>"
        )
    parts.append("</svg>")
    return "".join(parts)


def _legend(with_path: bool) -> str:
    items = []
    for cat in ("compute", "blocked", "collective", "failed", "other"):
        items.append(
            f"<span><i class='swatch' style='background:{_fill(cat)}'></i>"
            f"{cat}</span>"
        )
    if with_path:
        items.append("<span>&#8212;&#8212; (dashed) critical path</span>")
    return f"<div class='legend'>{''.join(items)}</div>"


def html_report(
    source: Recorder | Iterable[Span],
    *,
    title: str = "repro.obs run report",
    elapsed: float | None = None,
    predictions: Mapping[str, Any] | None = None,
    model: Any | None = None,
    counters: Mapping[str, float] | None = None,
    history_text: str | None = None,
    track_names: Mapping[int, str] | None = None,
) -> str:
    """Render one run as a single self-contained HTML document."""
    spans = _spans_of(source)
    if counters is None and isinstance(source, Recorder):
        counters = {k: c.value for k, c in sorted(source.counters.items())}
    if elapsed is None:
        elapsed = max((s.t_end for s in spans), default=0.0)
    segs = critical_path(spans, elapsed)
    cp = critical_path_summary(segs)
    waits = wait_summary(spans)
    states = classify_waits(spans)
    imb = load_imbalance(spans, elapsed)

    sections: list[str] = []
    sections.append(
        "<h2>Timeline</h2>"
        + _legend(bool(segs))
        + svg_timeline(spans, elapsed, path=segs, track_names=track_names)
    )

    by_kind = ", ".join(f"{k} {v:.4g}s" for k, v in sorted(cp["by_kind"].items()))
    sections.append(
        "<h2>Critical path</h2>"
        f"<p>Length <b>{cp['length_s']:.6g}s</b> (= elapsed) over "
        f"{cp['n_segments']} segments with {cp['rank_switches']} rank "
        f"switches; time on path: {html.escape(by_kind)}.</p>"
        + _table(
            ["start s", "end s", "rank", "kind", "segment", "seconds"],
            [[seg.t_start, seg.t_end, seg.track, seg.kind, seg.name, seg.duration]
             for seg in segs],
        )
    )

    wait_rows = [
        [cause, secs, (secs / waits["total_blocked_s"]) if waits["total_blocked_s"] else 0.0]
        for cause, secs in waits["by_cause"].items()
        if secs > 0 or cause != "unclassified"
    ]
    sections.append(
        "<h2>Wait states</h2>"
        f"<p>{waits['n_waits']} blocked spans, "
        f"{waits['total_blocked_s']:.4g}s total, classification coverage "
        f"<b>{waits['coverage']:.0%}</b> ({len(states)} spans assigned "
        "exactly one cause).</p>"
        + _table(["cause", "seconds", "fraction"], wait_rows)
    )

    sections.append(
        "<h2>Load balance</h2>"
        f"<p>Compute imbalance <b>{imb['imbalance']:.1%}</b> "
        f"(max/mean - 1), sigma {imb['sigma_s']:.4g}s; "
        f"{imb['blocked_frac']:.1%} of rank-time blocked.</p>"
        + _table(
            ["rank", "compute s", "blocked s", "overhead s", "idle s", "busy frac"],
            [[r["rank"], r["compute_s"], r["blocked_s"], r["overhead_s"],
              r["idle_s"], r["compute_frac"]] for r in imb["ranks"]],
        )
    )

    if predictions:
        rows = attribute_phases(spans, predictions, model=model)
        sections.append(
            "<h2>Perf-model attribution</h2>"
            "<p>Measured phase means vs roofline predictions; "
            "phases off by more than 25% are flagged.</p>"
            + _table(
                ["phase", "count", "measured mean s", "predicted s", "ratio", "verdict"],
                [[r["phase"], r["count"], r["measured_mean_s"], r["predicted_s"],
                  r["ratio"],
                  {True: "DIVERGES", False: "ok", None: "unmodeled"}[r["diverges"]]]
                 for r in rows],
            )
        )

    if counters:
        sections.append(
            "<h2>Counters</h2>"
            + _table(["counter", "total"], [[k, v] for k, v in counters.items()])
        )

    if history_text:
        sections.append(
            "<h2>Bench history</h2>"
            f"<pre class='muted'>{html.escape(history_text)}</pre>"
        )

    return (
        "<!doctype html><html lang='en'><head><meta charset='utf-8'>"
        f"<title>{html.escape(title)}</title><style>{_CSS}</style></head><body>"
        f"<h1>{html.escape(title)}</h1>"
        f"<p class='muted'>elapsed {elapsed:.6g}s &middot; "
        f"{imb['n_ranks']} rank(s) &middot; {len(spans)} spans</p>"
        + "".join(sections)
        + "</body></html>\n"
    )


def write_report(path: str, source: Recorder | Iterable[Span], **kwargs: Any) -> str:
    """Write :func:`html_report` output to ``path``; returns the path."""
    doc = html_report(source, **kwargs)
    with open(path, "w") as fh:
        fh.write(doc)
    return path


# ---------------------------------------------------------------------------
# Fleet report: the whole bench suite on one page.
# ---------------------------------------------------------------------------

#: Wait-cause -> fill for the stacked breakdown bars.  Identity is
#: never color-alone: every segment carries a <title> tooltip and the
#: same numbers appear in the adjacent table cells.
WAIT_BAR_COLORS: dict[str, str] = {
    "late-sender": "#eb6834",
    "late-receiver": "#d95926",
    "transfer": "#9a9890",
    "collective-op": "#1baf7a",
    "collective-imbalance": "#2a78d6",
    "unclassified": "#52514e",
}


def svg_sparkline(
    values: Iterable[float],
    *,
    width: int = 130,
    height: int = 26,
    label: str = "",
) -> str:
    """Tiny inline trend line for one bench metric series.

    Degenerate inputs degrade gracefully rather than erroring: an empty
    series renders a muted placeholder, a single point renders one dot,
    and a flat series draws its line mid-band instead of dividing by a
    zero range.  The full series is in the ``<title>`` tooltip.
    """
    vals = [float(v) for v in values]
    if not vals:
        return "<span class='muted'>(no history)</span>"
    pad = 3.0
    lo, hi = min(vals), max(vals)
    span = hi - lo

    def y(v: float) -> float:
        if span == 0:
            return height / 2.0
        return pad + (height - 2 * pad) * (1.0 - (v - lo) / span)

    def x(i: int) -> float:
        if len(vals) == 1:
            return width / 2.0
        return pad + (width - 2 * pad) * i / (len(vals) - 1)

    tip = html.escape(
        (f"{label}: " if label else "") + ", ".join(f"{v:.6g}" for v in vals)
    )
    parts = [
        f"<svg viewBox='0 0 {width} {height}' width='{width}' height='{height}' "
        f"xmlns='http://www.w3.org/2000/svg' role='img' "
        f"aria-label='{html.escape(label) or 'trend'}'><title>{tip}</title>"
    ]
    if len(vals) > 1:
        pts = " ".join(f"{x(i):.2f},{y(v):.2f}" for i, v in enumerate(vals))
        parts.append(
            f"<polyline points='{pts}' fill='none' stroke='#2a78d6' "
            "stroke-width='1.5'/>"
        )
    parts.append(
        f"<circle cx='{x(len(vals) - 1):.2f}' cy='{y(vals[-1]):.2f}' r='2.4' "
        "fill='#d95926'/>"
    )
    parts.append("</svg>")
    return "".join(parts)


def _wait_bar(by_cause: Mapping[str, float], width: int = 220, height: int = 14) -> str:
    """One stacked horizontal bar of wait seconds per cause."""
    total = sum(v for v in by_cause.values() if v > 0)
    if total <= 0:
        return "<span class='muted'>(no blocked time)</span>"
    parts = [
        f"<svg viewBox='0 0 {width} {height}' width='{width}' height='{height}' "
        "xmlns='http://www.w3.org/2000/svg' role='img' "
        "aria-label='wait-state breakdown'>"
    ]
    x0 = 0.0
    for cause in sorted(by_cause):
        v = by_cause[cause]
        if v <= 0:
            continue
        w = width * v / total
        fill = WAIT_BAR_COLORS.get(cause, WAIT_BAR_COLORS["unclassified"])
        tip = html.escape(f"{cause}: {v:.6g}s ({v / total:.0%})")
        parts.append(
            f"<rect x='{x0:.2f}' y='0' width='{max(w, 0.5):.2f}' "
            f"height='{height}' fill='{fill}'><title>{tip}</title></rect>"
        )
        x0 += w
    parts.append("</svg>")
    return "".join(parts)


def _metric_series(history: Iterable[Mapping], name: str, metric: str) -> list[float]:
    """History values of one metric for one bench, oldest first."""
    from .history import _metric_value

    out = []
    for entry in history:
        if entry.get("name") != name:
            continue
        value = _metric_value(entry, metric)
        if value is not None:
            out.append(value)
    return out


def _wait_causes(record: Mapping) -> dict[str, float]:
    """``wait.<cause>_s`` counters of one record, as cause -> seconds."""
    out = {}
    for key, value in record.get("counters", {}).items():
        if key.startswith("wait.") and key.endswith("_s"):
            out[key[len("wait."):-len("_s")]] = float(value)
    return out


def _gate_cell(statuses: Mapping[str, str]) -> str:
    """The red/green gate column for one bench.

    ``regression`` anywhere is red; all-skipped means the gate never
    saw this bench (no baseline yet) and renders muted, not green.
    """
    seen = set(statuses.values())
    if "regression" in seen:
        detail = ", ".join(m for m, s in sorted(statuses.items()) if s == "regression")
        return f"<span class='bad'>FAIL ({html.escape(detail)})</span>"
    if seen and seen != {"skipped"}:
        return "<span class='ok'>OK</span>"
    return "<span class='muted'>no baseline</span>"


def fleet_report(
    rows: Iterable[Mapping],
    *,
    history: Iterable[Mapping] | None = None,
    multi: Any | None = None,
    title: str = "repro.obs fleet report",
) -> str:
    """Render one fleet ledger as a single self-contained HTML page.

    ``rows`` is the ``fleet.jsonl`` content (:func:`repro.obs.fleet.load_fleet`);
    ``history`` the longitudinal record behind the per-bench sparklines
    (wall seconds, virtual seconds, cell-cache hit rate); ``multi`` a
    :class:`repro.obs.history.ComparisonReport` driving the
    red/green gate column.  Output is deterministic for fixed inputs —
    no timestamps, no environment — so golden-file tests can pin it.
    """
    rows = list(rows)
    history = list(history or [])
    fleet_meta = rows[0]["fleet"] if rows else {}
    n_failed = sum(1 for r in rows if r["fleet"]["status"] == "failed")

    body_rows = []
    for r in rows:
        meta = r["fleet"]
        name = str(r.get("name", meta["bench"]))
        wall = _metric_series(history, name, "seconds") + [float(r["seconds"])]
        virt = _metric_series(history, name, "virtual_seconds")
        v_now = float(r.get("virtual_seconds", 0.0))
        if v_now > 0:
            virt.append(v_now)
        hit = _metric_series(history, name, "counters.cellcache.hit_rate")
        hit_now = r.get("counters", {}).get("cellcache.hit_rate")
        if hit_now is not None:
            hit.append(float(hit_now))
        status = meta["status"]
        status_cell = (
            f"<span class='bad'>{html.escape(status)}</span>" if status == "failed"
            else html.escape(status)
        )
        gate = _gate_cell(multi.gate_status(name)) if multi is not None else (
            "<span class='muted'>-</span>"
        )
        body_rows.append(
            "<tr>"
            f"<td>{html.escape(name)}</td>"
            f"<td>{status_cell}</td>"
            f"<td>{html.escape(', '.join(meta.get('tags', [])))}</td>"
            f"<td>{_fmt(float(r['seconds']))}</td>"
            f"<td>{svg_sparkline(wall, label=f'{name} wall s')}</td>"
            f"<td>{_fmt(v_now) if v_now > 0 else '-'}</td>"
            f"<td>{svg_sparkline(virt, label=f'{name} virtual s')}</td>"
            f"<td>{svg_sparkline(hit, label=f'{name} cache hit rate')}</td>"
            f"<td>{gate}</td>"
            "</tr>"
        )
    head = "".join(
        f"<th>{html.escape(h)}</th>"
        for h in ["bench", "status", "tags", "wall s", "wall trend",
                  "virtual s", "virtual trend", "cache hit trend", "gate"]
    )
    summary = (
        f"<table><thead><tr>{head}</tr></thead>"
        f"<tbody>{''.join(body_rows)}</tbody></table>"
    )

    sections = [
        "<h2>Suite</h2>"
        + (
            f"<p class='bad'>{n_failed} bench(es) FAILED</p>" if n_failed
            else "<p class='ok'>all benches completed</p>"
        )
        + summary
    ]

    wait_rows = []
    for r in rows:
        causes = _wait_causes(r)
        if not causes:
            continue
        total = sum(causes.values())
        top = max(causes, key=lambda c: causes[c]) if total > 0 else "-"
        wait_rows.append([
            html.escape(str(r.get("name", ""))), total, top, _wait_bar(causes),
        ])
    if wait_rows:
        body = "".join(
            "<tr>" + "".join(
                f"<td>{cell if isinstance(cell, str) else _fmt(cell)}</td>"
                for cell in row
            ) + "</tr>"
            for row in wait_rows
        )
        sections.append(
            "<h2>Wait states</h2>"
            "<p class='muted'>Engine wait-state mix (virtual seconds) for "
            "benches that record it; hover a segment for cause and share.</p>"
            "<table><thead><tr><th>bench</th><th>blocked s</th>"
            "<th>dominant cause</th><th>breakdown</th></tr></thead>"
            f"<tbody>{body}</tbody></table>"
        )

    if multi is not None:
        from .history import format_comparison_report

        sections.append(
            "<h2>Multi-metric gate</h2>"
            f"<pre class='muted'>{html.escape(format_comparison_report(multi))}</pre>"
        )

    subtitle = (
        f"fleet {html.escape(str(fleet_meta.get('id', '?')))} &middot; "
        f"mode {html.escape(str(fleet_meta.get('mode', '?')))} &middot; "
        f"{len(rows)} bench(es)"
    )
    return (
        "<!doctype html><html lang='en'><head><meta charset='utf-8'>"
        f"<title>{html.escape(title)}</title><style>{_CSS}</style></head><body>"
        f"<h1>{html.escape(title)}</h1>"
        f"<p class='muted'>{subtitle}</p>"
        + "".join(sections)
        + "</body></html>\n"
    )


def write_fleet_report(path: str, rows: Iterable[Mapping], **kwargs: Any) -> str:
    """Write :func:`fleet_report` output to ``path``; returns the path."""
    doc = fleet_report(rows, **kwargs)
    with open(path, "w") as fh:
        fh.write(doc)
    return path
