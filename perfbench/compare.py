"""``--compare A.json B.json``: apply the bounds to two full records.

One row per workload and metric, B against A, with a verdict:

* ``better`` / ``worse``: the values differ by more than the bound;
* ``same``: they do not;
* ``unresolved``: either side's run-to-run spread (quartile distance of
  its raw samples over their median) is wider than the bound and the
  two sets of samples overlap, so the difference cannot be told from
  the noise.

The bounds of the end-to-end metrics come from ``BENCHMARK.json``.  The
deterministic layer numbers in ``GATED_LAYERS`` are compared as well:
the simulator is deterministic, so for the same seed any rise in virtual
time is a regression, however small.  Exit code 1 on any ``worse`` row
or any rise in the share of failed operations.
"""

from __future__ import annotations

import json
import statistics
import sys

from . import load_contract

#: Per-layer metrics that are exact for a given seed: (better, bound).
GATED_LAYERS = {
    "simmpi.virtual_s": ("lower", 0.0),
    "simmpi.virtual_mflops_per_proc": ("higher", 0.0),
    "core.traversal.force_rel_err_p50": ("lower", 0.10),
}


def spread(samples: list) -> float:
    """Quartile distance over the median; 0 for fewer than two samples."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def verdict(a: float, b: float, better: str, bound: float,
            a_samples: list = (), b_samples: list = ()) -> tuple[str, float]:
    """(verdict, how much worse B is than A as a share of A; A is never 0)."""
    worse_by = (b - a) / abs(a) * (1 if better == "lower" else -1)
    noisy = max(spread(list(a_samples)), spread(list(b_samples))) > bound
    if noisy and a_samples and b_samples:
        overlap = min(a_samples) <= max(b_samples) and min(b_samples) <= max(a_samples)
        if overlap:
            return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < -bound:
        return "better", worse_by
    return "same", worse_by


def _row(workload, metric, unit, a, b, better, bound, a_samples=(), b_samples=()) -> dict:
    v, worse_by = verdict(a, b, better, bound, a_samples, b_samples)
    return {"workload": workload, "metric": metric, "unit": unit, "a": a, "b": b,
            "worse_by": worse_by, "bound": bound, "verdict": v}


def _failed_share(entry: dict) -> float:
    return sum(d["failed"] for d in entry.values()) / sum(d["attempted"] for d in entry.values())


def compare_records(a: dict, b: dict, contract: dict) -> tuple[list[dict], bool]:
    """Rows for every workload both records hold; whether any regressed."""
    rows = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        ea, eb = wa["end_to_end"], wb["end_to_end"]
        for decl in contract["end_to_end"]:
            metric = decl["name"]
            rows.append(_row(
                name, metric, decl["unit"],
                ea["metrics"][metric]["value"], eb["metrics"][metric]["value"],
                decl["better"], decl["bound"],
                ea["samples"].get(metric, ()), eb["samples"].get(metric, ())))
        la, lb = wa.get("per_layer"), wb.get("per_layer")
        if la and lb and a["seed"] == b["seed"] and la["sizes"] == lb["sizes"]:
            for metric, (better, bound) in GATED_LAYERS.items():
                if metric in la["measured"] and metric in lb["measured"]:
                    rows.append(_row(
                        name, metric, la["metrics"][metric]["unit"],
                        la["metrics"][metric]["value"], lb["metrics"][metric]["value"],
                        better, bound))
        failed_a, failed_b = _failed_share(wa), _failed_share(wb)
        rows.append({"workload": name, "metric": "failed_share", "unit": "share",
                     "a": failed_a, "b": failed_b, "worse_by": failed_b - failed_a,
                     "bound": 0.0, "verdict": "worse" if failed_b > failed_a else "same"})
    return rows, any(r["verdict"] == "worse" for r in rows)


def compare_files(path_a: str, path_b: str, stream=sys.stdout) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    rows, regressed = compare_records(a, b, load_contract())
    print(f"A = {path_a} ({a['git_revision'][:12]}, seed {a['seed']})\n"
          f"B = {path_b} ({b['git_revision'][:12]}, seed {b['seed']})", file=stream)
    print(f"{'workload':<15}{'metric':<34}{'A':>14}{'B':>14}  {'B worse by':>10}"
          f"  {'bound':>6}  verdict", file=stream)
    for r in rows:
        print(f"{r['workload']:<15}{r['metric']:<34}{r['a']:>14.6g}{r['b']:>14.6g}"
              f"  {r['worse_by']:>+10.1%}  {r['bound']:>6.0%}  {r['verdict']}"
              f"  [{r['unit']}]", file=stream)
    print("REGRESSION" if regressed else "no regression", file=stream)
    return 1 if regressed else 0
