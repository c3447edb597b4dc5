"""``python -m repro.obs`` — trace analysis & regression tracking CLI.

Its subcommands drive the analysis stack from the shell:

``analyze TRACE.json``
    The one text report of a run: wait-state breakdown, per-rank load
    balance, the critical path and the counters of a Chrome-trace file
    written by :func:`repro.obs.chrome_trace` (e.g.
    ``examples/parallel_treecode_demo.py --trace``).  The timeline is
    the trace file itself, opened in Perfetto.  With
    ``--predict pred.json``, adds the perf-model attribution table;
    predictions map phase names to seconds or Workload fields
    (``{"force": {"flops": 1e9, "mem_bytes": 2e8}}``).

``compare HISTORY.jsonl``
    The rolling-baseline gate over a history JSONL (written by
    ``fleet --history`` or a bench's own ``--history`` flag) with the
    one gate ``--metric`` / ``--threshold`` name.  Exits 1 when any
    bench regressed beyond the threshold and the noise model, 2 when
    the file holds no record.

``fleet``
    Run the whole benchmark suite (or ``--bench`` subsets) as one
    campaign (:mod:`repro.obs.fleet`): content-fingerprinted dedupe,
    crash-safe resume, ``--workers`` parallelism, one ``fleet.jsonl``
    ledger line per bench.  Prints the run summary as JSON, then the
    suite table (:func:`repro.obs.fleet.format_suite`).  ``--baseline``
    + ``--gate`` runs the same gate with several metrics over the
    committed history and prints its tables, which is the gate CI keys
    off (a gate without a baseline that holds records is exit 2 before
    any bench runs); ``--history`` appends the freshly computed records
    to a history file.  Exits 1 on a failed bench or a gate regression.

``validate FILE.jsonl [...]``
    Strict schema check of record files (``benchmarks/baseline.jsonl``,
    ``fleet.jsonl``) against ``benchmarks/schema.json`` — corrupt JSON
    is an error here, unlike the forgiving history reader.

``wallclock``
    Where did the wall-clock go: runs a small
    :func:`repro.core.parallel.parallel_nbody_run` under
    :func:`repro.obs.wallclock.profile` and prints the per-span table
    (self seconds of every span name, ``simmpi.engine``,
    ``gravity.kernel.cells`` and the rest, an exact partition of
    elapsed wall seconds), followed by the virtual-time critical path
    of the same run under :class:`~repro.simmpi.cost.SpaceSimulatorCost`,
    read from the run's own trace.  ``--json`` saves the wall-clock
    spans as a Chrome trace (Perfetto shows it as a flame view);
    ``--replay TRACE.json`` re-derives the table from a saved trace
    instead of running.

A trace, history or predictions argument that cannot be used (missing,
not JSON, no ``traceEvents`` list, no span, no record, not a mapping of
phase to prediction) is one line on stderr naming the file and the
reason, exit 2, before anything is printed; so is a ``wallclock`` size
flag below 1, naming the flag.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from .analysis import (
    attribute_phases,
    critical_path,
    format_attribution,
    format_critical_path,
    format_imbalance,
    format_wait_summary,
    load_imbalance,
    self_seconds,
    wait_summary,
)
from .export import chrome_trace, recorder_from_chrome_trace
from .history import (
    DEFAULT_FLEET_GATES,
    MetricGate,
    compare_history,
    format_comparison_report,
    load_history,
    parse_gate_spec,
)


def _refuse(path: str, reason: str):
    print(f"{path}: {reason}", file=sys.stderr)
    raise SystemExit(2)


def _load_trace(path: str):
    """The recorder of a Chrome-trace file and the time its last span
    ends; a file that holds no usable trace is refused."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        _refuse(path, exc.strerror)
    except ValueError as exc:
        _refuse(path, f"not JSON ({exc})")
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        _refuse(path, "not a Chrome trace: no traceEvents list")
    try:
        rec = recorder_from_chrome_trace(doc)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        _refuse(path, f"malformed trace event ({type(exc).__name__}: {exc})")
    if not rec.spans:
        _refuse(path, "the trace holds no span")
    return rec, max(s.t_end for s in rec.spans)


def _load_records(path: str) -> list[dict]:
    """The records of a history file; a gate over none would compare
    nothing and pass, so a file that yields none is refused."""
    try:
        entries = load_history(path)
    except OSError as exc:
        _refuse(path, exc.strerror)
    if not entries:
        _refuse(path, "holds no record, so the gate would compare nothing")
    return entries


def _attribution(path: str, rec, threshold: float) -> list[dict[str, Any]]:
    """The attribution rows of a predictions file over ``rec`` (none for
    an empty object); a file that is not a JSON object of usable
    predictions is refused."""
    try:
        with open(path) as fh:
            pred = json.load(fh)
    except OSError as exc:
        _refuse(path, exc.strerror)
    except ValueError as exc:
        _refuse(path, f"not JSON ({exc})")
    if not isinstance(pred, dict):
        _refuse(path, "predictions must be a JSON object of phase -> prediction")
    try:
        return attribute_phases(rec, pred, threshold=threshold) if pred else []
    except (TypeError, ValueError) as exc:
        _refuse(path, f"unusable prediction ({type(exc).__name__}: {exc})")


def _cmd_analyze(opts: argparse.Namespace) -> int:
    rec, elapsed = _load_trace(opts.trace)
    attribution = None
    if opts.predict is not None:
        attribution = _attribution(opts.predict, rec, opts.threshold)
    print(f"{opts.trace}: {len(rec.spans)} spans, elapsed {elapsed:.6g}s")
    print()
    print(format_wait_summary(wait_summary(rec)))
    print()
    print(format_imbalance(load_imbalance(rec, elapsed)))
    print()
    print(format_critical_path(critical_path(rec, elapsed), max_rows=opts.max_rows))
    if attribution:
        print()
        print(format_attribution(attribution))
    if rec.counters:
        print()
        print("counters: " + ", ".join(
            f"{name}={rec.counters[name].value:g}" for name in sorted(rec.counters)
        ))
    return 0


def _cmd_fleet(opts: argparse.Namespace) -> int:
    from .fleet import build_registry, format_suite, run_fleet

    if opts.list:
        registry = build_registry(opts.bench_dir)
        for entry in sorted(registry.values(), key=lambda e: e.name):
            smoke = entry.bench.record_name(entry.name, smoke=True)
            print(f"{entry.name:30s} smoke={smoke:36s} tags={','.join(entry.bench.tags)}")
        return 0

    # A gate that has nothing to compare against would report OK with
    # every row skipped: refuse it before any bench runs.
    gated = opts.gate or bool(opts.gate_spec)
    if gated and not opts.baseline:
        opts.usage_error("--gate / --gate-spec compare the run against "
                         "--baseline HISTORY.jsonl, and none was given")
    baseline = _load_records(opts.baseline) if gated else []

    run = run_fleet(
        opts.bench or None,
        out_dir=opts.out,
        smoke=not opts.full,
        workers=opts.workers,
        bench_dir=opts.bench_dir,
        throttle=opts.throttle,
        history=opts.history,
    )
    print(json.dumps(run.to_dict(), indent=2, sort_keys=True))
    for record in run.failed:
        print(f"FAILED {record['fleet']['bench']}: "
              f"{record['fleet'].get('error', '?')}", file=sys.stderr)

    print()
    print(format_suite(run.rows))

    multi = None
    if gated:
        gates = (
            tuple(parse_gate_spec(s) for s in opts.gate_spec)
            if opts.gate_spec else DEFAULT_FLEET_GATES
        )
        live = [r for r in run.rows if r["fleet"]["status"] != "failed"]
        multi = compare_history(baseline + live, gates, window=opts.window)
        print()
        print(format_comparison_report(multi))

    if not run.ok:
        return 1
    return 0 if multi is None or multi.ok else 1


def _cmd_validate(opts: argparse.Namespace) -> int:
    from .fleet import _harness, default_bench_dir
    from .schemacheck import validate_jsonl_lines

    harness = _harness(default_bench_dir())
    schema = harness.load_schema(opts.schema or harness.SCHEMA_PATH)
    bad = 0
    for path in opts.files:
        with open(path) as fh:
            errors = validate_jsonl_lines(fh, schema)
        if errors:
            bad += 1
            print(f"{path}: {len(errors)} schema violation(s)")
            for err in errors:
                print(f"  - {err}")
        else:
            with open(path) as fh:
                n = sum(1 for line in fh if line.strip())
            print(f"{path}: OK ({n} record(s))")
    return 1 if bad else 0


def _cmd_wallclock(opts: argparse.Namespace) -> int:
    from . import wallclock as wc

    if opts.replay:
        rec, _ = _load_trace(opts.replay)
        try:
            table = self_seconds(rec)
        except ValueError as exc:
            _refuse(opts.replay, str(exc))
        print(wc.format_report(table))
        return 0

    for flag in ("n", "ranks", "steps"):
        if getattr(opts, flag) < 1:
            _refuse(f"--{flag}", f"must be at least 1, got {getattr(opts, flag)}")
    if opts.n < opts.ranks:
        _refuse("--n", f"must be at least --ranks ({opts.ranks}), got {opts.n}")

    import numpy as np

    from ..core.backend import get_backend
    from ..core.parallel import ParallelConfig, parallel_nbody_run
    from ..simmpi.cost import SpaceSimulatorCost

    rng = np.random.default_rng(opts.seed)
    pos = rng.random((opts.n, 3))
    kb = get_backend()
    with wc.profile() as wall:
        res = parallel_nbody_run(
            pos, n_ranks=opts.ranks, n_steps=opts.steps, dt=1e-3,
            config=ParallelConfig(backend=kb), cost=SpaceSimulatorCost(),
        )
    print(f"parallel_nbody_run: n={opts.n} ranks={opts.ranks} "
          f"steps={opts.steps} backend={kb.name}")
    print()
    print(wc.format_report(self_seconds(wall)))
    virtual = res.sim.observer
    elapsed = max(s.t_end for s in virtual.spans)
    print()
    print(format_critical_path(critical_path(virtual, elapsed), max_rows=opts.max_rows))
    if opts.json:
        with open(opts.json, "w") as fh:
            json.dump(chrome_trace(wall, process_name="wallclock",
                                   track_names={0: "host"}), fh)
        print(f"wrote {opts.json}")
    return 0


def _cmd_compare(opts: argparse.Namespace) -> int:
    gate = MetricGate(opts.metric, opts.threshold)
    report = compare_history(_load_records(opts.history), (gate,), window=opts.window)
    if opts.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(format_comparison_report(report))
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="trace analysis and bench regression tracking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="wait states, load balance, critical path")
    p_an.add_argument("trace", help="Chrome trace_event JSON (repro.obs.chrome_trace)")
    p_an.add_argument("--predict", metavar="PRED.json", default=None,
                      help="phase -> seconds or Workload-field predictions")
    p_an.add_argument("--threshold", type=float, default=0.25,
                      help="attribution divergence threshold (default 0.25)")
    p_an.add_argument("--max-rows", type=int, default=20,
                      help="critical-path rows to print (default 20)")
    p_an.set_defaults(func=_cmd_analyze)

    p_cmp = sub.add_parser("compare", help="bench-history regression gate")
    p_cmp.add_argument("history", help="history.jsonl (fleet --history, bench --history)")
    p_cmp.add_argument("--metric", default="seconds",
                       help="record field or counters.<name> (default seconds; "
                            "use virtual_seconds for machine-independent gating)")
    p_cmp.add_argument("--threshold", type=float, default=0.05,
                       help="relative slowdown that counts as a regression")
    p_cmp.add_argument("--window", type=int, default=5,
                       help="rolling-baseline window of prior runs")
    p_cmp.add_argument("--json", action="store_true", help="machine-readable output")
    p_cmp.set_defaults(func=_cmd_compare)

    p_fl = sub.add_parser("fleet", help="run the bench suite as one campaign")
    p_fl.add_argument("--out", default="fleet-out",
                      help="output directory: campaign store + fleet.jsonl "
                           "(default fleet-out)")
    p_fl.add_argument("--bench", action="append", default=[], metavar="NAME",
                      help="run only this bench (repeatable; default: all)")
    p_fl.add_argument("--full", action="store_true",
                      help="full-workload parameterizations (default: smoke)")
    p_fl.add_argument("--workers", type=int, default=None,
                      help="campaign worker processes (default: "
                           "REPRO_CAMPAIGN_WORKERS or serial)")
    p_fl.add_argument("--bench-dir", default=None,
                      help="bench suite directory (default: benchmarks/ or "
                           "REPRO_BENCH_ROOT)")
    p_fl.add_argument("--list", action="store_true",
                      help="print the registry and exit")
    p_fl.add_argument("--baseline", metavar="HISTORY.jsonl", default=None,
                      help="longitudinal history the gates compare against")
    p_fl.add_argument("--gate", action="store_true",
                      help="run the default regression gates against "
                           "--baseline (exit 1 on regression)")
    p_fl.add_argument("--gate-spec", action="append", default=[],
                      metavar="METRIC[:THR[:DIR]]",
                      help="override the default gates (repeatable), e.g. "
                           "virtual_seconds:0.15 or "
                           "counters.cellcache.hit_rate:0.1:higher")
    p_fl.add_argument("--window", type=int, default=5,
                      help="rolling-baseline window (default 5)")
    p_fl.add_argument("--history", metavar="PATH", default=None,
                      help="append freshly computed records to this history "
                           "file")
    p_fl.add_argument("--throttle", type=float, default=0.0,
                      help="per-shard pacing delay, for crash drills")
    p_fl.set_defaults(func=_cmd_fleet, usage_error=p_fl.error)

    p_wc = sub.add_parser("wallclock", help="wall-clock self seconds per span")
    p_wc.add_argument("--n", type=int, default=4000, help="particles (default 4000)")
    p_wc.add_argument("--ranks", type=int, default=4, help="simulated ranks (default 4)")
    p_wc.add_argument("--steps", type=int, default=2, help="leapfrog steps (default 2)")
    p_wc.add_argument("--seed", type=int, default=11)
    p_wc.add_argument("--max-rows", type=int, default=10,
                      help="critical-path rows to print (default 10)")
    p_wc.add_argument("--json", metavar="TRACE.json", default=None,
                      help="save the wall-clock spans as a Chrome trace")
    p_wc.add_argument("--replay", metavar="TRACE.json", default=None,
                      help="re-derive the table from a saved trace (no run)")
    p_wc.set_defaults(func=_cmd_wallclock)

    p_val = sub.add_parser("validate", help="strict schema check of record JSONL")
    p_val.add_argument("files", nargs="+", help="baseline.jsonl / fleet.jsonl files")
    p_val.add_argument("--schema", default=None,
                       help="subset JSON Schema (default benchmarks/schema.json)")
    p_val.set_defaults(func=_cmd_validate)

    opts = parser.parse_args(argv)
    return opts.func(opts)


if __name__ == "__main__":
    sys.exit(main())
