"""Exporters: Chrome ``trace_event`` JSON, flat metrics, canonical dumps.

The Chrome trace format (loadable in Perfetto or ``chrome://tracing``)
is the interchange target: every span becomes a complete ``"ph": "X"``
event with ``tid`` = track (per-rank lanes), ``ts``/``dur`` in
microseconds, and the exact second-resolution interval duplicated into
``args`` so consumers never lose precision to the microsecond
convention.  The interval is its two ends, not a start and a length:
rounding each end alone is monotone, so a canonical dump keeps every
nesting exact, where a rounded start plus a rounded length can end a
span after the next one starts.  :func:`parse_chrome_trace` inverts
the export — the round-trip is property-tested.

:func:`dumps_canonical` renders any JSON-able object byte-stably:
floats are normalized to 9 significant digits (absorbing formatting
and last-ulp arithmetic differences), keys are sorted, separators
fixed.  The golden-trace regression suite compares these bytes against
committed fixtures, so any semantic change to engine scheduling fails
loudly instead of drifting silently.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from .model import Recorder, Span, _spans_of

__all__ = [
    "chrome_trace",
    "parse_chrome_trace",
    "recorder_from_chrome_trace",
    "metrics",
    "dumps_canonical",
    "canonical_floats",
]


def chrome_trace(
    source: Recorder | Iterable[Span],
    *,
    process_name: str = "repro",
    track_names: dict[int, str] | None = None,
) -> dict:
    """Build a Chrome ``trace_event`` document from recorded spans.

    Events are emitted in canonical order ``(t_start, track, name)``
    so the same run always serializes identically.  Counters (when the
    source is a :class:`Recorder`) become a single ``"ph": "C"`` sample
    at the end of the trace — their running totals.
    """
    spans = _spans_of(source)
    tracks = sorted({s.track for s in spans})
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for track in tracks:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": track,
                "args": {"name": (track_names or {}).get(track, f"rank {track}")},
            }
        )
    for s in sorted(spans, key=lambda s: (s.t_start, s.track, s.name, s.t_end)):
        args = {"t_end_s": s.t_end, "t_start_s": s.t_start}
        args.update(s.args_dict)
        events.append(
            {
                "name": s.name,
                "cat": s.cat or "span",
                "ph": "X",
                "ts": s.t_start * 1e6,
                "dur": (s.t_end - s.t_start) * 1e6,
                "pid": 0,
                "tid": s.track,
                "args": args,
            }
        )
    if isinstance(source, Recorder):
        t_end = max((s.t_end for s in spans), default=0.0)
        for name in sorted(source.counters):
            events.append(
                {
                    "name": name,
                    "ph": "C",
                    "cat": "counter",
                    "ts": t_end * 1e6,
                    "pid": 0,
                    "tid": 0,
                    "args": {"value": source.counters[name].value},
                }
            )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.obs"},
    }


def parse_chrome_trace(doc: dict) -> list[Span]:
    """Rebuild spans from a Chrome trace document (the export inverse).

    Only ``"ph": "X"`` events carry spans; the exact-seconds ``args``
    fields written by :func:`chrome_trace` (``t_start_s`` and
    ``t_end_s``; ``dur_s`` in older files) are preferred over the
    microsecond ``ts``/``dur`` when present.
    """
    spans: list[Span] = []
    for ev in doc.get("traceEvents", []):
        if ev.get("ph") != "X":
            continue
        args = dict(ev.get("args", {}))
        t0 = args.pop("t_start_s", ev["ts"] / 1e6)
        dur = args.pop("dur_s", ev.get("dur", 0.0) / 1e6)
        t1 = args.pop("t_end_s", t0 + dur)
        cat = ev.get("cat", "")
        spans.append(
            Span(
                name=ev["name"],
                t_start=t0,
                t_end=t1,
                track=ev.get("tid", 0),
                cat="" if cat == "span" else cat,
                args=tuple(sorted(args.items())),
            )
        )
    return spans


def recorder_from_chrome_trace(doc: dict) -> Recorder:
    """Rebuild a full :class:`Recorder` from a Chrome trace document.

    Spans come from :func:`parse_chrome_trace`; the ``cat: "counter"``
    events written by :func:`chrome_trace` restore the counters — the
    exporter's full inverse, so ``analyze``/``report`` runs on a trace
    file see the same meters the live run recorded.
    """
    rec = Recorder()
    rec.spans = parse_chrome_trace(doc)
    for ev in doc.get("traceEvents", []):
        if ev.get("ph") == "C" and ev.get("cat") == "counter":
            rec.counter(ev["name"]).value = float(ev.get("args", {}).get("value", 0.0))
    return rec


def metrics(source: Recorder | Iterable[Span]) -> dict[str, float]:
    """Flatten a recorder into one ``name -> number`` dict.

    Keys: ``counter.<name>``, and per span name ``span.<name>.count`` /
    ``span.<name>.total_s``.
    """
    out: dict[str, float] = {}
    spans = _spans_of(source)
    totals: dict[str, float] = {}
    counts: dict[str, int] = {}
    for s in spans:
        totals[s.name] = totals.get(s.name, 0.0) + s.duration
        counts[s.name] = counts.get(s.name, 0) + 1
    for name in sorted(totals):
        out[f"span.{name}.count"] = counts[name]
        out[f"span.{name}.total_s"] = totals[name]
    if isinstance(source, Recorder):
        for name in sorted(source.counters):
            out[f"counter.{name}"] = source.counters[name].value
    return out


def canonical_floats(obj: Any, sig: int = 9) -> Any:
    """Recursively normalize floats to ``sig`` significant digits.

    Integers (and bools) pass through untouched; containers are
    rebuilt.  This is what makes canonical dumps byte-stable across
    formatting conventions and last-bit arithmetic noise.
    """
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.{sig}g}")
    if isinstance(obj, dict):
        return {k: canonical_floats(v, sig) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical_floats(v, sig) for v in obj]
    return obj


def dumps_canonical(obj: Any, sig: int = 9) -> str:
    """Byte-stable JSON: normalized floats, sorted keys, fixed separators."""
    return json.dumps(
        canonical_floats(obj, sig),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    ) + "\n"
