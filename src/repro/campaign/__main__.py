"""``python -m repro.campaign`` — the campaign service CLI.

Subcommands:

* ``example`` — emit a small mixed demo catalog (JSONL to stdout or
  ``--out``), the three-line quickstart's first line;
* ``run CATALOG --dir DIR`` — run or resume a campaign; prints the
  report as JSON.  ``--workers`` overrides ``REPRO_CAMPAIGN_WORKERS``;
  ``--throttle`` paces shards (crash drills / load tests);
* ``status DIR`` — shard tallies of a campaign directory;
* ``query DIR [--kind K] [--limit N]`` — result rows as JSON lines,
  served from the sqlite index.

The crash-recovery suite drives ``run`` as a real subprocess and
SIGKILLs it mid-campaign; everything it needs to resume afterwards is
in the campaign directory, never in this process.
"""

from __future__ import annotations

import argparse
import json
import sys

from .runner import run_campaign
from .spec import (
    ClusterSpec,
    CosmologySpec,
    PipelineSpec,
    SupernovaSpec,
    load_catalog,
    save_catalog,
    sweep,
)
from .store import ResultStore


def _cmd_example(args: argparse.Namespace) -> int:
    specs = [
        *sweep(ClusterSpec(work_hours=24.0), n_nodes=[64, 128, 294]),
        *sweep(CosmologySpec(n_side=4, a_final=0.15), seed=[1, 2]),
        SupernovaSpec(n_particles=40, n_steps=2),
        # one fast end-to-end pipeline scenario (ICs -> ... -> collapse)
        PipelineSpec(n_side=4, a_final=0.2, sn_particles=16, sn_steps=2,
                     with_neutrinos=False),
        ClusterSpec(n_nodes=294),  # duplicate of the sweep: a dedupe hit
    ]
    if args.out:
        save_catalog(specs, args.out)
    else:
        for spec in specs:
            print(json.dumps(spec.to_dict(), sort_keys=True))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    catalog = load_catalog(args.catalog)
    report = run_campaign(
        catalog,
        args.dir,
        workers=args.workers,
        throttle=args.throttle,
    )
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 1 if report.failed else 0


def _cmd_status(args: argparse.Namespace) -> int:
    print(json.dumps(ResultStore(args.dir).status(), indent=2, sort_keys=True))
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    for row in ResultStore(args.dir).query(kind=args.kind, limit=args.limit):
        print(json.dumps(row, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Batch simulation-as-a-service over scenario catalogs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("example", help="emit a small demo catalog (JSONL)")
    p.add_argument("--out", help="write to this file instead of stdout")
    p.set_defaults(func=_cmd_example)

    p = sub.add_parser("run", help="run or resume a campaign")
    p.add_argument("catalog", help="JSONL catalog of scenario specs")
    p.add_argument("--dir", required=True, help="campaign directory (store + crash ledger)")
    p.add_argument("--workers", type=int, default=None,
                   help=f"process pool size (default: $REPRO_CAMPAIGN_WORKERS or serial)")
    p.add_argument("--throttle", type=float, default=0.0,
                   help="seconds to sleep before each shard (pacing/testing)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("status", help="shard tallies of a campaign directory")
    p.add_argument("dir")
    p.set_defaults(func=_cmd_status)

    p = sub.add_parser("query", help="print result rows as JSON lines")
    p.add_argument("dir")
    p.add_argument("--kind", default=None, help="filter by scenario kind")
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(func=_cmd_query)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
