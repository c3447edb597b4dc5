"""Longitudinal bench history: rolling baselines and a regression gate.

A history file holds one schema-validated bench record per line,
appended by ``benchmarks/_harness.append_history`` where a caller names
the file: ``python -m repro.obs fleet --history`` for the suite, a
bench's own ``--history`` flag for one run.  This module is the read
side: it groups the lines per bench name in file order (oldest first),
computes a rolling baseline over the most recent ``window`` prior runs,
and flags the latest run as a regression when it is slower than the
baseline by more than both

* a relative ``threshold`` (default 5%), and
* three robust sigmas of the baseline's own noise (median absolute
  deviation scaled to a normal sigma),

so a genuinely noisy bench needs a larger excursion to trip the gate
than a deterministic one.  Virtual (simulated) seconds are
deterministic, which is what makes the CI gate meaningful across
heterogeneous runners: compare with ``metric="virtual_seconds"``.

Blessing an intentional change is simply appending new honest runs:
once the new timing dominates the window, it *is* the baseline (see
EXPERIMENTS.md for the workflow).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

__all__ = [
    "BenchComparison",
    "ComparisonReport",
    "MetricGate",
    "MultiComparisonReport",
    "DEFAULT_FLEET_GATES",
    "load_history",
    "robust_baseline",
    "compare_history",
    "compare_history_multi",
    "format_comparison_report",
    "format_multi_report",
    "parse_gate_spec",
]

#: How many baseline sigmas the latest run must exceed, in addition to
#: the relative threshold, before it counts as a regression.
NOISE_SIGMAS = 3.0

#: MAD -> sigma scale factor for normally distributed noise.
_MAD_TO_SIGMA = 1.4826


def load_history(path: str) -> list[dict]:
    """Parse a ``history.jsonl`` file; blank/corrupt lines are skipped.

    Returns entries in file order — the longitudinal order every
    baseline computation relies on.
    """
    entries: list[dict] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(entry, dict) and "name" in entry:
                entries.append(entry)
    return entries


def robust_baseline(values: Iterable[float]) -> tuple[float, float]:
    """Median and MAD-derived sigma of a sample (the noise model)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("baseline requires at least one value")
    med = _median(xs)
    mad = _median(sorted(abs(x - med) for x in xs))
    return med, _MAD_TO_SIGMA * mad


def _median(sorted_xs: list[float]) -> float:
    n = len(sorted_xs)
    mid = n // 2
    if n % 2:
        return sorted_xs[mid]
    return 0.5 * (sorted_xs[mid - 1] + sorted_xs[mid])


@dataclass(frozen=True)
class BenchComparison:
    """Latest run of one bench against its rolling baseline."""

    name: str
    n_runs: int
    baseline: float | None
    sigma: float | None
    latest: float | None
    delta: float | None  # latest/baseline - 1, when comparable
    status: str  # "ok" | "regression" | "improvement" | "skipped"
    reason: str = ""


@dataclass
class ComparisonReport:
    """Outcome of a full-history comparison."""

    metric: str
    threshold: float
    window: int
    direction: str = "lower"  # "lower" | "higher" — which way is better
    rows: list[BenchComparison] = field(default_factory=list)

    @property
    def regressions(self) -> list[BenchComparison]:
        return [r for r in self.rows if r.status == "regression"]

    @property
    def improvements(self) -> list[BenchComparison]:
        return [r for r in self.rows if r.status == "improvement"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_dict(self) -> dict[str, Any]:
        return {
            "metric": self.metric,
            "threshold": self.threshold,
            "window": self.window,
            "direction": self.direction,
            "ok": self.ok,
            "benches": [vars(r) for r in self.rows],
        }


def _resolve_path(obj: Any, path: str) -> Any:
    """Resolve a dotted metric path against (possibly nested) mappings.

    A flat key containing dots wins at every level (``counters`` in
    bench records is a flat ``str -> float`` mapping whose keys may
    themselves be dotted, e.g. ``"cellcache.hit_rate"``); otherwise the
    path descends one mapping per segment, so nested layouts like
    ``{"counters": {"cellcache": {"hits": 5}}}`` resolve too.  Records
    with neither shape yield None and are skipped, never dropped with a
    wrong value.
    """
    if not isinstance(obj, Mapping):
        return None
    if path in obj:
        return obj[path]
    head, _, rest = path.partition(".")
    if rest and head in obj:
        return _resolve_path(obj[head], rest)
    return None


def _metric_value(entry: Mapping, metric: str) -> float | None:
    value = _resolve_path(entry, metric)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def compare_history(
    entries: Iterable[Mapping],
    *,
    metric: str = "seconds",
    threshold: float = 0.05,
    window: int = 5,
    noise_sigmas: float = NOISE_SIGMAS,
    direction: str = "lower",
) -> ComparisonReport:
    """Compare each bench's latest run against its rolling baseline.

    ``metric`` names a top-level record field (``seconds``,
    ``virtual_seconds``) or a dotted path into nested or flat-dotted
    mappings (``counters.cache_hits``, ``counters.cellcache.hit_rate``).
    Runs whose metric is missing or non-positive are excluded (a bench
    that never reports virtual time is skipped rather than failed).

    ``direction`` says which way is better: ``"lower"`` (timings — a
    higher latest value regresses) or ``"higher"`` (rates like cache
    hit rate — a *lower* latest value regresses).
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if window < 1:
        raise ValueError("window must be >= 1")
    if direction not in ("lower", "higher"):
        raise ValueError(f"direction must be 'lower' or 'higher', got {direction!r}")
    by_name: dict[str, list[float]] = {}
    for entry in entries:
        value = _metric_value(entry, metric)
        if value is not None and value > 0:
            by_name.setdefault(str(entry["name"]), []).append(value)
    report = ComparisonReport(
        metric=metric, threshold=threshold, window=window, direction=direction,
    )
    for name in sorted(by_name):
        values = by_name[name]
        if len(values) < 2:
            report.rows.append(BenchComparison(
                name, len(values), None, None, values[-1] if values else None,
                None, "skipped", "needs at least 2 runs with this metric",
            ))
            continue
        latest = values[-1]
        base_window = values[max(0, len(values) - 1 - window):-1]
        med, sigma = robust_baseline(base_window)
        delta = latest / med - 1.0
        worse = latest > med * (1.0 + threshold) and latest > med + noise_sigmas * sigma
        better = latest < med * (1.0 - threshold) and latest < med - noise_sigmas * sigma
        if direction == "higher":
            worse, better = better, worse
        if worse:
            status = "regression"
            reason = (
                f"{metric} {latest:.6g} is {delta:+.1%} vs baseline {med:.6g} "
                f"(threshold {threshold:.0%}, noise sigma {sigma:.3g}, "
                f"{direction} is better)"
            )
        elif better:
            status = "improvement"
            reason = f"{metric} improved {delta:+.1%} vs baseline {med:.6g}"
        else:
            status = "ok"
            reason = ""
        report.rows.append(BenchComparison(
            name, len(values), med, sigma, latest, delta, status, reason,
        ))
    return report


@dataclass(frozen=True)
class MetricGate:
    """One gated metric: what to compare, how far it may drift, which
    way is better.  The unit of the fleet's multi-metric CI gate."""

    metric: str
    threshold: float = 0.05
    direction: str = "lower"

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.direction not in ("lower", "higher"):
            raise ValueError(
                f"direction must be 'lower' or 'higher', got {self.direction!r}"
            )


#: The fleet CI gate: deterministic virtual seconds are the sharp edge,
#: wall-clock is an order-of-magnitude backstop only — fleet shards run
#: under worker-pool contention, which swings wall time several-fold
#: run to run, so anything tighter than 400% flakes — recovery
#: overhead guards the resilience benches (virtual, hence tight-able),
#: and the cell-cache hit rate gates *downward* drift of the
#: latency-hiding layer's effectiveness.
DEFAULT_FLEET_GATES: tuple[MetricGate, ...] = (
    MetricGate("virtual_seconds", 0.15),
    MetricGate("seconds", 4.0),
    MetricGate("counters.recovery_overhead_s", 0.25),
    MetricGate("counters.cellcache.hit_rate", 0.10, direction="higher"),
)


@dataclass
class MultiComparisonReport:
    """One :class:`ComparisonReport` per gated metric, one verdict."""

    window: int
    reports: list[ComparisonReport] = field(default_factory=list)

    @property
    def regressions(self) -> list[tuple[str, BenchComparison]]:
        return [(rep.metric, row) for rep in self.reports for row in rep.regressions]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def gate_status(self, name: str) -> dict[str, str]:
        """Per-metric status ("ok"/"regression"/...) for one bench."""
        out: dict[str, str] = {}
        for rep in self.reports:
            for row in rep.rows:
                if row.name == name:
                    out[rep.metric] = row.status
        return out

    def to_dict(self) -> dict[str, Any]:
        return {
            "window": self.window,
            "ok": self.ok,
            "metrics": [rep.to_dict() for rep in self.reports],
        }


def compare_history_multi(
    entries: Iterable[Mapping],
    gates: Iterable[MetricGate] = DEFAULT_FLEET_GATES,
    *,
    window: int = 5,
    noise_sigmas: float = NOISE_SIGMAS,
) -> MultiComparisonReport:
    """The multi-metric regression gate over one shared history.

    Runs :func:`compare_history` once per :class:`MetricGate`; the
    verdict is the conjunction — any regression in any gated metric
    fails the whole gate.  Benches missing a metric are skipped for
    that metric only (a closed-form bench has no recovery time; that
    must not mask a treecode cache regression).
    """
    entries = list(entries)
    multi = MultiComparisonReport(window=window)
    for gate in gates:
        multi.reports.append(compare_history(
            entries,
            metric=gate.metric,
            threshold=gate.threshold,
            window=window,
            noise_sigmas=noise_sigmas,
            direction=gate.direction,
        ))
    return multi


def parse_gate_spec(spec: str) -> MetricGate:
    """Parse a CLI gate spec ``metric[:threshold[:direction]]``.

    >>> parse_gate_spec("virtual_seconds:0.15")
    MetricGate(metric='virtual_seconds', threshold=0.15, direction='lower')
    >>> parse_gate_spec("counters.cellcache.hit_rate:0.1:higher").direction
    'higher'
    """
    parts = spec.split(":")
    if not parts[0]:
        raise ValueError(f"empty metric in gate spec {spec!r}")
    if len(parts) > 3:
        raise ValueError(f"gate spec {spec!r} has too many fields")
    threshold = float(parts[1]) if len(parts) > 1 and parts[1] else 0.05
    direction = parts[2] if len(parts) > 2 else "lower"
    return MetricGate(parts[0], threshold, direction)


def format_comparison_report(report: ComparisonReport) -> str:
    """Human-readable comparison table plus a one-line verdict."""
    from ..analysis.tables import format_table

    rows = []
    for r in report.rows:
        rows.append([
            r.name,
            r.n_runs,
            r.baseline if r.baseline is not None else "-",
            r.latest if r.latest is not None else "-",
            f"{r.delta:+.1%}" if r.delta is not None else "-",
            r.status,
        ])
    table = format_table(
        ["bench", "runs", "baseline", "latest", "delta", "status"],
        rows,
        f"bench history: metric={report.metric} threshold={report.threshold:.0%} "
        f"window={report.window}",
    )
    if report.ok:
        verdict = (
            f"OK: no regressions across {len(report.rows)} bench(es)"
            + (f", {len(report.improvements)} improvement(s)" if report.improvements else "")
        )
    else:
        lines = "\n".join(f"  - {r.name}: {r.reason}" for r in report.regressions)
        verdict = f"REGRESSION in {len(report.regressions)} bench(es):\n{lines}"
    return f"{table}\n{verdict}"


def format_multi_report(multi: MultiComparisonReport) -> str:
    """All per-metric tables plus the one conjoined verdict."""
    blocks = [format_comparison_report(rep) for rep in multi.reports]
    if multi.ok:
        verdict = (
            f"FLEET GATE OK: no regressions across "
            f"{len(multi.reports)} gated metric(s)"
        )
    else:
        lines = "\n".join(
            f"  - [{metric}] {row.name}: {row.reason}"
            for metric, row in multi.regressions
        )
        verdict = (
            f"FLEET GATE REGRESSION in {len(multi.regressions)} "
            f"bench-metric pair(s):\n{lines}"
        )
    return "\n\n".join(blocks + [verdict])
