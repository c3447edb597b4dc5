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
heterogeneous runners: gate on ``MetricGate("virtual_seconds")``.

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
    "DEFAULT_FLEET_GATES",
    "load_history",
    "robust_baseline",
    "compare_history",
    "format_comparison_report",
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
    """Latest run of one bench against its rolling baseline, under one
    gate (``metric`` is that gate's)."""

    metric: str
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
    """Outcome of a full-history comparison: one row per gate and bench
    that reports the gate's metric, one verdict."""

    gates: tuple[MetricGate, ...]
    window: int
    rows: list[BenchComparison] = field(default_factory=list)

    @property
    def regressions(self) -> list[BenchComparison]:
        return [r for r in self.rows if r.status == "regression"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def gate_status(self, name: str) -> dict[str, str]:
        """Per-metric status ("ok"/"regression"/...) for one bench."""
        return {r.metric: r.status for r in self.rows if r.name == name}

    def to_dict(self) -> dict[str, Any]:
        return {
            "window": self.window,
            "ok": self.ok,
            "gates": [vars(g) for g in self.gates],
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
    gates: Iterable[MetricGate],
    *,
    window: int = 5,
    noise_sigmas: float = NOISE_SIGMAS,
) -> ComparisonReport:
    """Compare each bench's latest run against its rolling baseline,
    once per gate over one shared history.

    The verdict is the conjunction: a regression in any gated metric
    fails the whole gate.  Runs whose metric is missing or non-positive
    are excluded for that gate only (a closed-form bench has no
    recovery time; that is skipped rather than failed, and must not
    mask a treecode cache regression).
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    entries, gates = list(entries), tuple(gates)
    if len({g.metric for g in gates}) != len(gates):
        raise ValueError("gates must name distinct metrics")
    report = ComparisonReport(gates, window)
    for gate in gates:
        report.rows.extend(_compare_gate(entries, gate, window, noise_sigmas))
    return report


def _compare_gate(
    entries: list[Mapping], gate: MetricGate, window: int, noise_sigmas: float
) -> Iterable[BenchComparison]:
    metric, threshold = gate.metric, gate.threshold
    by_name: dict[str, list[float]] = {}
    for entry in entries:
        value = _metric_value(entry, metric)
        if value is not None and value > 0:
            by_name.setdefault(str(entry["name"]), []).append(value)
    for name in sorted(by_name):
        values = by_name[name]
        latest = values[-1]
        if len(values) < 2:
            yield BenchComparison(
                metric, name, len(values), None, None, latest,
                None, "skipped", "needs at least 2 runs with this metric",
            )
            continue
        base_window = values[max(0, len(values) - 1 - window):-1]
        med, sigma = robust_baseline(base_window)
        delta = latest / med - 1.0
        worse = latest > med * (1.0 + threshold) and latest > med + noise_sigmas * sigma
        better = latest < med * (1.0 - threshold) and latest < med - noise_sigmas * sigma
        if gate.direction == "higher":
            worse, better = better, worse
        if worse:
            status = "regression"
            reason = (
                f"{metric} {latest:.6g} is {delta:+.1%} vs baseline {med:.6g} "
                f"(threshold {threshold:.0%}, noise sigma {sigma:.3g}, "
                f"{gate.direction} is better)"
            )
        elif better:
            status = "improvement"
            reason = f"{metric} improved {delta:+.1%} vs baseline {med:.6g}"
        else:
            status = "ok"
            reason = ""
        yield BenchComparison(
            metric, name, len(values), med, sigma, latest, delta, status, reason,
        )


@dataclass(frozen=True)
class MetricGate:
    """One gated metric: what to compare, how far it may drift, which
    way is better.  ``metric`` names a top-level record field
    (``seconds``, ``virtual_seconds``) or a dotted path into nested or
    flat-dotted mappings (``counters.cache_hits``,
    ``counters.cellcache.hit_rate``); ``direction`` is ``"lower"``
    (timings: a higher latest value regresses) or ``"higher"`` (rates
    like cache hit rate: a *lower* latest value regresses)."""

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
#: recovery overhead guards the resilience benches (virtual, hence
#: tight-able), and the cell-cache hit rate gates *downward* drift of
#: the latency-hiding layer's effectiveness.  Wall seconds are not
#: here: fleet shards run under worker-pool contention, which swings
#: them several-fold run to run; ``python3 -m perfbench --compare``
#: is the wall-time comparison.
DEFAULT_FLEET_GATES: tuple[MetricGate, ...] = (
    MetricGate("virtual_seconds", 0.15),
    MetricGate("counters.recovery_overhead_s", 0.25),
    MetricGate("counters.cellcache.hit_rate", 0.10, direction="higher"),
)


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
    """One table and verdict line per gate, then the conjoined verdict."""
    from ..analysis.tables import format_table

    blocks = []
    for gate in report.gates:
        rows = [r for r in report.rows if r.metric == gate.metric]
        table = format_table(
            ["bench", "runs", "baseline", "latest", "delta", "status"],
            [
                [
                    r.name,
                    r.n_runs,
                    r.baseline if r.baseline is not None else "-",
                    r.latest if r.latest is not None else "-",
                    f"{r.delta:+.1%}" if r.delta is not None else "-",
                    r.status,
                ]
                for r in rows
            ],
            f"bench history: metric={gate.metric} threshold={gate.threshold:.0%} "
            f"window={report.window}",
        )
        bad = [r for r in rows if r.status == "regression"]
        if bad:
            lines = "\n".join(f"  - {r.name}: {r.reason}" for r in bad)
            verdict = f"REGRESSION in {len(bad)} bench(es):\n{lines}"
        else:
            improved = sum(r.status == "improvement" for r in rows)
            verdict = (
                f"OK: no regressions across {len(rows)} bench(es)"
                + (f", {improved} improvement(s)" if improved else "")
            )
        blocks.append(f"{table}\n{verdict}")
    if report.ok:
        verdict = (
            f"FLEET GATE OK: no regressions across "
            f"{len(report.gates)} gated metric(s)"
        )
    else:
        lines = "\n".join(
            f"  - [{r.metric}] {r.name}: {r.reason}" for r in report.regressions
        )
        verdict = (
            f"FLEET GATE REGRESSION in {len(report.regressions)} "
            f"bench-metric pair(s):\n{lines}"
        )
    return "\n\n".join(blocks + [verdict])
