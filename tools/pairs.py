"""Paired timing of two revisions: the claim protocol as one command.

``python3 tools/pairs.py PARENT [--change REV] --workload W [--metric wall_s]
[--pairs 10] [--seeds A-B] [--record FILE]`` checks ``PARENT`` (and ``REV``)
out with ``git worktree`` into a temporary directory; without ``--change`` the
working tree is the change.  One pair a seed: ``python3 -m perfbench --workload W
--trace 0 --seed S --out F`` runs in both trees, one after the other, and the
side that runs first alternates from pair to pair.  The output is the row
EXPERIMENTS.md uses, ``| workload | seeds | parent | change | change better |
verdict |``, one row per end-to-end metric of ``BENCHMARK.json`` the record
holds (medians; pairs the change won and the median gap; :func:`verdict`), and
the verdict of ``--metric`` alone on the last line: ``better``, ``same``,
``worse`` or ``unresolved``.

``--step P`` times ``benchmarks/bench_scale_ranks._run_one(P)`` instead, in a
fresh process per sample: its host CPU seconds (``cpu_s``, the default metric
there) and the process's peak RSS (``peak_rss_mb``), one row each; the seeds
only number the pairs, the step's input is fixed.

``--record FILE`` also writes the campaign as JSON (:func:`bench_record`): the
two revisions as commit SHAs, every pair's samples with each run's
``host_scale``, the host's steal seconds over the campaign and the rows.

Nothing here writes under ``perfbench/``; the worktrees are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent

#: Sample one ``_run_one(P)`` step: host CPU of the call, peak RSS of the process.
_STEP = """
import json, resource, sys, time
sys.path[:0] = ["src", "benchmarks"]
from bench_scale_ranks import _run_one
t = time.process_time()
_run_one({p})
cpu = time.process_time() - t
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({{"cpu_s": cpu, "peak_rss_mb": rss}}))
"""


def declared(metric: str) -> tuple[bool, float | None]:
    """``(lower is better, bound)`` of an end-to-end metric as
    ``BENCHMARK.json`` declares it (the step's ``cpu_s`` and
    ``peak_rss_mb`` are lower-is-better too; no bound if undeclared)."""
    spec = {m["name"]: m for m in json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]}
    m = spec.get(metric, {})
    return m.get("better", "lower") == "lower", m.get("bound")


def verdict(parent, change, lower: bool = True, bound: float | None = None) -> str:
    """``better`` or ``worse`` when the gap between the two medians is
    larger than the parent's quartile spread (``q3 - q1``) and the
    change won (or lost) at least nine pairs in ten, pair ``i`` being
    ``parent[i]`` against ``change[i]`` (a tie counts for neither side);
    ``unresolved`` when either side's quartile spread is wider than
    ``bound`` times its median, unless every run of the change is
    better than every run of the parent; else ``same``.

    >>> verdict([1.0, 1.1, 1.2, 1.0, 1.1], [0.9, 0.95, 0.9, 0.92, 0.93])
    'better'
    >>> verdict([1.0, 1.1, 1.2, 1.0, 1.1], [1.05, 1.1, 1.0, 1.2, 1.1])
    'same'
    """
    parent, change = np.asarray(parent, dtype=float), np.asarray(change, dtype=float)
    sign = 1.0 if lower else -1.0  # compare as lower-is-better
    apart = (sign * change).max() < (sign * parent).min()
    if bound is not None and not apart and any(
            np.subtract(*np.percentile(x, [75, 25])) > bound * np.median(x) for x in (parent, change)):
        return "unresolved"
    q1, q3 = np.percentile(parent, [25, 75])
    gap = sign * float(np.median(change) - np.median(parent))
    won = np.count_nonzero(sign * change < sign * parent if gap < 0 else sign * change > sign * parent)
    if abs(gap) <= q3 - q1 or won < 0.9 * parent.size:
        return "same"
    return "better" if gap < 0 else "worse"


def stats(parent, change, lower: bool = True, bound=None) -> dict:
    """One metric's pairs in numbers: each side's median and quartiles,
    the pairs the change won, the median gap (a share of the parent's
    median) and the verdict."""
    parent, change = np.asarray(parent, dtype=float), np.asarray(change, dtype=float)
    sides = {side: dict(zip(("q1", "median", "q3"), np.percentile(x, [25, 50, 75]).tolist()))
             for side, x in (("parent", parent), ("change", change))}
    p, c = sides["parent"]["median"], sides["change"]["median"]
    return {**sides, "won": int(np.count_nonzero(change < parent if lower else change > parent)),
            "pairs": parent.size, "gap": (c - p) / p,
            "verdict": verdict(parent, change, lower, bound)}


def row(name: str, seeds: str, parent, change, lower: bool = True, bound=None) -> str:
    """The EXPERIMENTS.md row of one metric's pairs (:func:`stats`)."""
    s = stats(parent, change, lower, bound)
    side = ["{median:.4g} [{q1:.4g}, {q3:.4g}]".format(**s[x]) for x in ("parent", "change")]
    return (f"| {name} | {seeds} | {side[0]} | {side[1]} | "
            f"{s['won']}/{s['pairs']} ({100.0 * s['gap']:+.1f}%) | {s['verdict']} |")


def end_to_end(sample: dict) -> list[str]:
    """The end-to-end metrics of ``BENCHMARK.json`` that ``sample`` holds, in its order."""
    names = [m["name"] for m in json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]]
    return [m for m in names if m in sample]


def bench_record(revs, name: str, seeds: list[int], samples, metric: str,
                 steal_s: float | None, working_tree: bool = False) -> dict:
    """What ``--record`` writes: the revisions ``(parent, change)`` (the
    change's uncommitted edits too if ``working_tree``), the workload,
    the seeds and ``metric``; one entry a pair with the side
    that ran first and both sides' samples (``host_scale`` included,
    where perfbench reports it); the host's steal seconds over the
    campaign (``None`` where ``/proc/stat`` cannot be read); one
    :func:`stats` row per end-to-end metric and the verdict of ``metric``."""
    def column(side: int, m: str) -> list[float]:
        return [s[m] for s in samples[side]]

    return {
        "parent": revs[0], "change": revs[1], "working_tree": working_tree,
        "workload": name, "seeds": list(seeds), "metric": metric, "steal_s": steal_s,
        "pairs": [{"seed": seed, "first": ("parent", "change")[i % 2], "parent": p, "change": c}
                  for i, (seed, p, c) in enumerate(zip(seeds, *samples))],
        "rows": [{"metric": m, **stats(column(0, m), column(1, m), *declared(m))}
                 for m in end_to_end(samples[0][0])],
        "verdict": verdict(column(0, metric), column(1, metric), *declared(metric)),
    }


def _perfbench(tree: Path, workload: str, seed: int, scratch: str) -> dict:
    out = os.path.join(scratch, "out.json")
    subprocess.run([sys.executable, "-m", "perfbench", "--workload", workload, "--trace", "0",
                    "--seed", str(seed), "--out", out], cwd=tree, check=True,
                   stdout=subprocess.DEVNULL)
    with open(out) as fh:
        record = json.load(fh)
    if not record["correct"]:
        raise SystemExit(f"{workload} seed {seed} in {tree}: wrong output")
    return {**{name: m["value"] for name, m in record["metrics"].items()},
            "host_scale": record["raw"]["host_scale"]}


def _step(tree: Path, ranks: int) -> dict:
    done = subprocess.run([sys.executable, "-c", _STEP.format(p=ranks)], cwd=tree, check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def _commit(rev: str) -> str:
    return subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=REPO,
                          check=True, capture_output=True, text=True).stdout.strip()


def _checkout(rev: str, where: str) -> Path:
    subprocess.run(["git", "worktree", "add", "--detach", where, rev], cwd=REPO, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return Path(where)


def _steal_s() -> float | None:
    """Seconds stolen from this host's CPUs since boot (``/proc/stat``)."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _seeds(spec: str | None, pairs: int) -> list[int]:
    if spec is None:
        return list(range(701, 701 + pairs))
    first, _, last = spec.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 tools/pairs.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", help="the base revision")
    parser.add_argument("--change", help="the changed revision (default: the working tree)")
    parser.add_argument("--workload", help="a perfbench workload")
    parser.add_argument("--step", type=int, metavar="P",
                        help="time bench_scale_ranks._run_one(P) instead of a workload")
    parser.add_argument("--metric", help="wall_s for a workload, cpu_s for --step")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", metavar="A-B", help="one pair a seed (default 701 on)")
    parser.add_argument("--record", metavar="FILE", help="also write the campaign as JSON")
    args = parser.parse_args(argv)
    if (args.workload is None) == (args.step is None):
        parser.error("give exactly one of --workload and --step")
    seeds = _seeds(args.seeds, args.pairs)
    if not seeds or args.pairs < 1:
        parser.error("no pairs to run")
    metric = args.metric or ("wall_s" if args.step is None else "cpu_s")
    name = args.workload or f"step P={args.step}"
    revs = (_commit(args.parent), _commit(args.change or "HEAD"))
    stolen = [_steal_s()]
    with tempfile.TemporaryDirectory(prefix="pairs-") as scratch:
        trees = []
        try:
            trees.append(_checkout(revs[0], os.path.join(scratch, "parent")))
            trees.append(REPO if args.change is None
                         else _checkout(revs[1], os.path.join(scratch, "change")))
            samples: list[list[dict]] = [[], []]
            for i, seed in enumerate(seeds):
                for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                    samples[side].append(
                        _step(trees[side], args.step) if args.step is not None else
                        _perfbench(trees[side], args.workload, seed, scratch))
                print(f"pair {i + 1}/{len(seeds)} seed {seed}: " + ", ".join(
                    f"{k} {samples[0][-1][k]:.4g} -> {samples[1][-1][k]:.4g}"
                    for k in samples[0][-1]), file=sys.stderr, flush=True)
        finally:
            for tree in trees:
                if tree != REPO:
                    subprocess.run(["git", "worktree", "remove", "--force", str(tree)],
                                   cwd=REPO, check=False)
    stolen.append(_steal_s())
    span = f"{seeds[0]}-{seeds[-1]}" if len(seeds) > 1 else str(seeds[0])
    print("| workload | seeds | parent | change | change better | verdict |")
    print("|---|---|---|---|---|---|")
    for m in end_to_end(samples[0][0]):
        print(row(f"{name} {m}", span, [s[m] for s in samples[0]], [s[m] for s in samples[1]],
                  *declared(m)))
    print(verdict([s[metric] for s in samples[0]], [s[metric] for s in samples[1]],
                  *declared(metric)))
    if args.record:
        steal = None if None in stolen else stolen[1] - stolen[0]
        record = bench_record(revs, name, seeds, samples, metric, steal, args.change is None)
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
