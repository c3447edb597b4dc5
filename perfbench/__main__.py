"""Command line of the benchmark; see ``perfbench/README.md``.

``--trace 0|1`` measures one workload in this process and prints the
result object as the last line (the form the benchmark driver calls).
Without ``--trace`` every selected workload runs in its own subprocess,
first untraced, then traced, and ``--out`` collects both.
"""

import time

T0 = time.perf_counter()  # set-up is timed from the first line

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from . import REPO_ROOT, ensure_repro, load_contract  # noqa: E402


def _parse(argv):
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(prog="python3 -m perfbench", description=__doc__)
    parser.add_argument("--workload", action="append", choices=names, metavar="NAME",
                        help=f"repeatable, run in the order given; one of {names}")
    parser.add_argument("--seed", type=int, default=0, help="inputs are generated from it")
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"],
                        help="how long one run measures")
    parser.add_argument("--repeats", type=int,
                        help="time exactly this many operations instead of --seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics (one workload)")
    parser.add_argument("--out", metavar="FILE", help="write the full record as JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for the benchmark's own tests; not comparable")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="apply the bounds to two --out files; exit 1 on any worse")
    args = parser.parse_args(argv)
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if (args.trace is not None or args.setup_only) and len(args.workload or ()) != 1:
        parser.error("--trace takes exactly one --workload")
    args.workload = args.workload or names
    return args


def _git_revision() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _run_all(args) -> int:
    """Every workload in its own subprocess: untraced, then traced."""
    import numpy

    from .harness import Scratch, print_metrics

    record = {
        "git_revision": _git_revision(),
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": args.seed,
        "seconds": args.seconds,
        "repeats": args.repeats,
        "smoke": args.smoke,
        "workloads": {},
    }
    correct = True
    with Scratch() as scratch:
        part = os.path.join(scratch.new(), "part.json")
        for name in args.workload:
            entry = record["workloads"][name] = {}
            for trace in (0, 1):
                cmd = [sys.executable, "-m", "perfbench", "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace), "--out", part]
                if args.repeats is not None:
                    cmd += ["--repeats", str(args.repeats)]
                if args.smoke:
                    cmd.append("--smoke")
                done = subprocess.run(cmd, cwd=REPO_ROOT, stdout=subprocess.DEVNULL)
                if done.returncode != 0:
                    print(f"{name} --trace {trace} exited {done.returncode}", file=sys.stderr)
                    return done.returncode
                with open(part) as fh:
                    detail = json.load(fh)
                print_metrics(detail)
                correct = correct and detail["correct"]
                entry["per_layer" if trace else "end_to_end"] = detail
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
    print("all outputs correct" if correct else "SOME OUTPUTS WERE WRONG")
    return 0 if correct else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if args.compare:
        from .compare import compare_files

        return compare_files(*args.compare)
    try:
        ensure_repro()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.trace is None and not args.setup_only:
        return _run_all(args)

    from . import harness

    name = args.workload[0]
    if args.setup_only:
        return harness.run_setup_only(name, args.seed, args.smoke, T0)
    detail = harness.run_workload(name, args.seed, args.seconds, args.repeats,
                                  bool(args.trace), args.smoke, T0)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(detail, fh)
    harness.print_metrics(detail)
    print(harness.result_line(detail))
    return 0  # a wrong output is reported in the result, not by the exit code


if __name__ == "__main__":
    sys.exit(main())
