"""Trace analysis: wait states, critical path, imbalance, attribution.

The recorder (:mod:`repro.obs.model`) captures *what happened*; this
module answers *why it took that long* — the Vampir/Scalasca workflow
the paper's authors ran by hand on their per-rank timelines:

* :func:`classify_waits` assigns every blocked span exactly one cause,
  Scalasca-style: a receiver stalled because the sender posted late
  (``late-sender``), a rendezvous sender stalled on a tardy receiver
  (``late-receiver``), wire time with both sides ready (``transfer``),
  and collective waits split into straggler time
  (``collective-imbalance``) vs. the operation's intrinsic cost
  (``collective-op``).  Classification relies on the happens-before
  metadata the SimMPI engine stamps into span args (peer rank, tag,
  post times, last-arriver info).
* :func:`critical_path` walks the happens-before DAG backward from the
  job's finish, hopping ranks at message matches and collective
  completions.  The returned segments partition ``[0, elapsed]``
  exactly, so their durations sum to the run's elapsed time — the
  identity the test suite pins to 1e-9.
* :func:`load_imbalance` reduces per-rank busy/blocked time to the
  summary statistics the paper's scaling sections reason with.
* :func:`self_seconds` rolls any well-nested span list up to exclusive
  seconds per span name, the flame-graph "self" column; over the
  wall-clock spans of :mod:`repro.obs.wallclock` it is the per-span table.
* :func:`attribute_phases` compares measured phase spans (key-sort,
  tree-build, traversal, force, NPB phases) against
  :class:`~repro.machine.perfmodel.PerfModel` predictions — a software
  roofline for the simulated cluster that flags diverging phases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from .model import Recorder, Span, _spans_of, validate_nesting

__all__ = [
    "WAIT_CAUSES",
    "WaitState",
    "PathSegment",
    "classify_waits",
    "wait_summary",
    "critical_path",
    "critical_path_summary",
    "load_imbalance",
    "self_seconds",
    "attribute_phases",
    "format_wait_summary",
    "format_critical_path",
    "format_imbalance",
    "format_attribution",
]

#: Every cause :func:`classify_waits` can assign.
WAIT_CAUSES = (
    "late-sender",
    "late-receiver",
    "transfer",
    "collective-imbalance",
    "collective-op",
    "unclassified",
)

#: Span categories that represent communication wait.
_WAIT_CATS = frozenset({"blocked", "collective"})

_ATOL = 1e-12


@dataclass(frozen=True)
class WaitState:
    """One blocked span with its assigned cause.

    ``imbalance_s``/``op_s`` decompose collective waits (time spent
    waiting for the last arriver vs. the operation itself); both are
    zero for point-to-point waits.
    """

    span: Span
    cause: str
    seconds: float
    imbalance_s: float = 0.0
    op_s: float = 0.0


def _classify_one(s: Span) -> WaitState:
    a = s.args_dict
    dur = s.duration
    if s.cat == "collective" or a.get("wait") == "collective":
        t_last = a.get("t_last")
        if t_last is None:
            return WaitState(s, "unclassified", dur)
        imb = min(max(float(t_last) - s.t_start, 0.0), dur)
        op = dur - imb
        cause = "collective-imbalance" if imb > op else "collective-op"
        return WaitState(s, cause, dur, imbalance_s=imb, op_s=op)
    kind = a.get("req_kind") or a.get("wait")
    t_peer = a.get("t_peer")
    if kind not in ("send", "recv") or t_peer is None:
        return WaitState(s, "unclassified", dur)
    if float(t_peer) > s.t_start + _ATOL:
        return WaitState(s, "late-sender" if kind == "recv" else "late-receiver", dur)
    return WaitState(s, "transfer", dur)


def classify_waits(source: Recorder | Iterable[Span]) -> list[WaitState]:
    """Assign every blocked/collective span exactly one wait-state cause."""
    return [_classify_one(s) for s in _spans_of(source) if s.cat in _WAIT_CATS]


def wait_summary(source: Recorder | Iterable[Span]) -> dict[str, Any]:
    """Aggregate wait states: seconds per cause, covering all blocked time.

    ``coverage`` is the classified fraction of total blocked time
    (excluding ``unclassified``); engine-produced traces reach 1.0.
    """
    states = classify_waits(source)
    by_cause = {cause: 0.0 for cause in WAIT_CAUSES}
    for ws in states:
        by_cause[ws.cause] += ws.seconds
    total = sum(by_cause.values())
    classified = total - by_cause["unclassified"]
    return {
        "total_blocked_s": total,
        "by_cause": by_cause,
        "n_waits": len(states),
        "coverage": 1.0 if total == 0.0 else classified / total,
        "collective_imbalance_s": sum(ws.imbalance_s for ws in states),
        "collective_op_s": sum(ws.op_s for ws in states),
    }


@dataclass(frozen=True)
class PathSegment:
    """One leg of the critical path: what rank ``track`` was doing on it."""

    track: int
    t_start: float
    t_end: float
    kind: str  # "compute" | "wait" | "collective" | "overhead"
    name: str

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


def critical_path(
    source: Recorder | Iterable[Span], elapsed: float | None = None
) -> list[PathSegment]:
    """Extract the run's critical path from its spans.

    Walks backward from the last-finishing rank at ``elapsed``.  Inside
    a wait whose cause is remote — a late sender, or a collective's
    last arriver — the walk hops to the responsible rank at the moment
    the dependency was created; otherwise it continues backward on the
    same rank.  Gaps with no recorded span (e.g. eager-send injection
    overhead, in-flight transfer of an already-posted message) become
    ``overhead`` segments.

    The returned segments are chronological and partition
    ``[0, elapsed]`` exactly: their durations sum to ``elapsed``.
    """
    spans = [
        s for s in _spans_of(source) if s.cat != "failed" and s.duration > _ATOL
    ]
    if elapsed is None:
        elapsed = max((s.t_end for s in spans), default=0.0)
    if elapsed <= _ATOL:
        return []
    if not spans:
        # Time passed but nothing was recorded (e.g. a run that was
        # pure eager-injection gaps): the whole span is untracked.
        return [PathSegment(0, 0.0, elapsed, "overhead", "untracked")]
    by_track: dict[int, list[Span]] = {}
    for s in spans:
        by_track.setdefault(s.track, []).append(s)
    for group in by_track.values():
        group.sort(key=lambda s: (s.t_start, s.t_end))
    ends = {tr: group[-1].t_end for tr, group in by_track.items()}
    last_end = max(ends.values())
    r = min(tr for tr, e in ends.items() if e >= last_end - _ATOL)
    t = elapsed

    def covering(track: int, before: float) -> Span | None:
        """Latest-starting span on ``track`` that starts before ``before``."""
        best = None
        for s in by_track.get(track, ()):
            if s.t_start < before - _ATOL:
                best = s
            else:
                break
        return best

    segments: list[PathSegment] = []
    while t > _ATOL:
        cur = covering(r, t)
        if cur is None:
            segments.append(PathSegment(r, 0.0, t, "overhead", "startup"))
            break
        if cur.t_end < t - _ATOL:
            segments.append(PathSegment(r, cur.t_end, t, "overhead", "untracked"))
            t = cur.t_end
            continue
        a = cur.args_dict
        if cur.cat == "collective" or a.get("wait") == "collective":
            t_last = a.get("t_last")
            last_rank = a.get("last_rank")
            if (
                t_last is not None
                and last_rank is not None
                and cur.t_start + _ATOL < float(t_last) < t - _ATOL
            ):
                segments.append(PathSegment(r, float(t_last), t, "collective", cur.name))
                t, r = float(t_last), int(last_rank)
                continue
            segments.append(PathSegment(r, cur.t_start, t, "collective", cur.name))
            t = cur.t_start
            continue
        if cur.cat in _WAIT_CATS:
            kind = a.get("req_kind") or a.get("wait")
            t_peer = a.get("t_peer")
            peer = a.get("peer")
            if (
                t_peer is not None
                and peer is not None
                and cur.t_start + _ATOL < float(t_peer) < t - _ATOL
            ):
                cause = (
                    "late-sender" if kind == "recv"
                    else "late-receiver" if kind == "send"
                    else "remote"
                )
                segments.append(
                    PathSegment(r, float(t_peer), t, "wait", f"{cause} (peer {peer})")
                )
                t, r = float(t_peer), int(peer)
                continue
            segments.append(PathSegment(r, cur.t_start, t, "wait", cur.name))
            t = cur.t_start
            continue
        segments.append(PathSegment(r, cur.t_start, t, "compute", cur.name))
        t = cur.t_start
    segments.reverse()
    return segments


def critical_path_summary(segments: Iterable[PathSegment]) -> dict[str, Any]:
    """Totals per segment kind, plus path length and rank switches."""
    segments = list(segments)
    by_kind: dict[str, float] = {}
    for seg in segments:
        by_kind[seg.kind] = by_kind.get(seg.kind, 0.0) + seg.duration
    switches = sum(
        1 for a, b in zip(segments, segments[1:]) if a.track != b.track
    )
    return {
        "length_s": sum(seg.duration for seg in segments),
        "n_segments": len(segments),
        "rank_switches": switches,
        "by_kind": by_kind,
    }


def load_imbalance(
    source: Recorder | Iterable[Span],
    elapsed: float | None = None,
    n_tracks: int | None = None,
) -> dict[str, Any]:
    """Per-rank busy/blocked accounting and imbalance statistics.

    ``imbalance`` is the classic ``max/mean - 1`` of per-rank compute
    time (0 means perfectly balanced); ``sigma_s`` its population
    standard deviation.  A span that lies wholly inside an earlier span
    on its track is already counted by it and adds nothing; partially
    overlapping spans are summed.  A zero-elapsed or empty run reports
    all-zero fractions — never a division error.
    """
    spans = _spans_of(source)
    if elapsed is None:
        elapsed = max((s.t_end for s in spans), default=0.0)
    if n_tracks is None:
        n_tracks = max((s.track + 1 for s in spans), default=0)
    nested = set()
    reach: dict[int, float] = {}  # latest end of the spans seen per track
    for i in sorted(range(len(spans)),
                    key=lambda i: (spans[i].track, spans[i].t_start, -spans[i].t_end)):
        s = spans[i]
        if s.t_end <= reach.get(s.track, float("-inf")):
            nested.add(i)
        else:
            reach[s.track] = s.t_end
    compute = [0.0] * n_tracks
    blocked = [0.0] * n_tracks
    t_finish = [0.0] * n_tracks
    for i, s in enumerate(spans):
        if not 0 <= s.track < n_tracks:
            continue
        t_finish[s.track] = max(t_finish[s.track], s.t_end)
        if i in nested:
            continue
        if s.cat in _WAIT_CATS:
            blocked[s.track] += s.duration
        elif s.cat != "failed":
            compute[s.track] += s.duration
    safe = elapsed if elapsed > 0 else 1.0
    ranks = [
        {
            "rank": i,
            "compute_s": compute[i],
            "blocked_s": blocked[i],
            "overhead_s": max(t_finish[i] - compute[i] - blocked[i], 0.0),
            "idle_s": max(elapsed - t_finish[i], 0.0),
            "compute_frac": compute[i] / safe if elapsed > 0 else 0.0,
            "blocked_frac": blocked[i] / safe if elapsed > 0 else 0.0,
        }
        for i in range(n_tracks)
    ]
    mean = sum(compute) / n_tracks if n_tracks else 0.0
    peak = max(compute, default=0.0)
    var = (
        sum((c - mean) ** 2 for c in compute) / n_tracks if n_tracks else 0.0
    )
    return {
        "elapsed": elapsed,
        "n_ranks": n_tracks,
        "ranks": ranks,
        "mean_compute_s": mean,
        "max_compute_s": peak,
        "sigma_s": var ** 0.5,
        "imbalance": (peak / mean - 1.0) if mean > 0 else 0.0,
        "blocked_frac": (
            sum(blocked) / (n_tracks * elapsed) if n_tracks and elapsed > 0 else 0.0
        ),
    }


def self_seconds(source: Recorder | Iterable[Span]) -> dict[str, float]:
    """Exclusive seconds per span name: each span's duration minus that
    of the spans nested directly inside it on its track.

    Every instant a root span covers is charged to exactly one name,
    the innermost span open at that instant, so the values sum to the
    root spans' total duration.  Spans that partially overlap have no
    innermost span: :func:`~repro.obs.model.validate_nesting` refuses
    them with ``ValueError``.

    >>> self_seconds([Span("run", 0.0, 10.0), Span("io", 2.0, 5.0),
    ...               Span("parse", 3.0, 4.0), Span("io", 6.0, 7.0)])
    {'run': 6.0, 'io': 3.0, 'parse': 1.0}
    """
    spans = _spans_of(source)
    validate_nesting(spans)
    out: dict[str, float] = {}
    open_spans: list[Span] = []
    for s in sorted(spans, key=lambda s: (s.track, s.t_start, -s.t_end, s.name)):
        while open_spans and (
            open_spans[-1].track != s.track or open_spans[-1].t_end <= s.t_start
        ):
            open_spans.pop()
        if open_spans:
            out[open_spans[-1].name] -= s.duration
        out[s.name] = out.get(s.name, 0.0) + s.duration
        open_spans.append(s)
    return out


def attribute_phases(
    source: Recorder | Iterable[Span],
    predictions: Mapping[str, Any],
    *,
    model: Any | None = None,
    threshold: float = 0.25,
) -> list[dict[str, Any]]:
    """Compare measured phase spans against perf-model predictions.

    ``predictions`` maps a phase (span) name to either a predicted
    per-occurrence time in seconds, a
    :class:`~repro.machine.perfmodel.Workload`, or a mapping of
    Workload fields; workloads are evaluated through ``model`` (a
    :class:`~repro.machine.perfmodel.PerfModel`, defaulting to the
    Space Simulator node).  Phases whose measured mean diverges from
    the prediction by more than ``threshold`` (relative, either
    direction) are flagged.  Measured phases with no prediction are
    reported with ``predicted_s=None`` so unmodeled time is visible.
    """
    from ..machine.perfmodel import PerfModel, Workload

    spans = _spans_of(source)
    totals: dict[str, float] = {}
    counts: dict[str, int] = {}
    for s in spans:
        if s.cat in _WAIT_CATS or s.cat == "failed":
            continue
        totals[s.name] = totals.get(s.name, 0.0) + s.duration
        counts[s.name] = counts.get(s.name, 0) + 1

    def predicted_seconds(value: Any) -> float:
        nonlocal model
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, Mapping):
            value = Workload(**value)
        if isinstance(value, Workload):
            if model is None:
                from ..machine.node import SPACE_SIMULATOR_NODE

                model = PerfModel(SPACE_SIMULATOR_NODE)
            return model.time_s(value)
        raise TypeError(f"prediction must be seconds or a Workload, got {value!r}")

    rows: list[dict[str, Any]] = []
    for name in sorted(set(totals) | set(predictions)):
        count = counts.get(name, 0)
        total = totals.get(name, 0.0)
        mean = total / count if count else 0.0
        if name in predictions:
            pred = predicted_seconds(predictions[name])
            ratio = mean / pred if pred > 0 else float("inf")
            diverges = not (1.0 / (1.0 + threshold) <= ratio <= 1.0 + threshold)
        else:
            pred, ratio, diverges = None, None, None
        rows.append(
            {
                "phase": name,
                "count": count,
                "measured_total_s": total,
                "measured_mean_s": mean,
                "predicted_s": pred,
                "ratio": ratio,
                "diverges": diverges,
            }
        )
    return rows


# -- text renderers (shared by the CLI and the demo) ---------------------

def format_wait_summary(summary: Mapping[str, Any]) -> str:
    from ..analysis.tables import format_table

    total = summary["total_blocked_s"]
    rows = [
        [cause, seconds, (seconds / total if total > 0 else 0.0)]
        for cause, seconds in summary["by_cause"].items()
        if seconds > 0 or cause != "unclassified"
    ]
    table = format_table(
        ["cause", "seconds", "fraction"],
        rows,
        f"wait states ({summary['n_waits']} blocked spans, "
        f"{total:.4g}s total, coverage {summary['coverage']:.0%})",
    )
    return table


def format_critical_path(
    segments: Iterable[PathSegment], max_rows: int = 20
) -> str:
    from ..analysis.tables import format_table

    segments = list(segments)
    summary = critical_path_summary(segments)
    shown = sorted(segments, key=lambda s: -s.duration)[:max_rows]
    shown.sort(key=lambda s: s.t_start)
    rows = [
        [f"{seg.t_start:.6g}", f"{seg.t_end:.6g}", seg.track, seg.kind, seg.name,
         seg.duration]
        for seg in shown
    ]
    head = (
        f"critical path: {summary['length_s']:.6g}s over "
        f"{summary['n_segments']} segments, {summary['rank_switches']} rank "
        "switches; by kind: "
        + ", ".join(f"{k} {v:.4g}s" for k, v in sorted(summary["by_kind"].items()))
    )
    table = format_table(
        ["start", "end", "rank", "kind", "segment", "seconds"],
        rows,
        head if len(shown) == len(segments)
        else head + f" (longest {len(shown)} shown)",
    )
    return table


def format_imbalance(stats: Mapping[str, Any]) -> str:
    from ..analysis.tables import format_table

    rows = [
        [r["rank"], r["compute_s"], r["blocked_s"], r["overhead_s"], r["idle_s"],
         r["compute_frac"]]
        for r in stats["ranks"]
    ]
    return format_table(
        ["rank", "compute s", "blocked s", "overhead s", "idle s", "busy frac"],
        rows,
        f"load balance: imbalance {stats['imbalance']:.1%}, "
        f"sigma {stats['sigma_s']:.4g}s, "
        f"blocked {stats['blocked_frac']:.1%} of {stats['n_ranks']} ranks x "
        f"{stats['elapsed']:.4g}s",
    )


def format_attribution(rows: Iterable[Mapping[str, Any]]) -> str:
    from ..analysis.tables import format_table

    table_rows = []
    for row in rows:
        table_rows.append([
            row["phase"],
            row["count"],
            row["measured_mean_s"],
            row["predicted_s"] if row["predicted_s"] is not None else "-",
            f"{row['ratio']:.3g}" if row["ratio"] is not None else "-",
            {True: "DIVERGES", False: "ok", None: "unmodeled"}[row["diverges"]],
        ])
    return format_table(
        ["phase", "count", "measured mean s", "predicted s", "ratio", "verdict"],
        table_rows,
        "perf-model attribution (measured vs roofline prediction)",
    )
