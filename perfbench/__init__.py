"""perfbench: one wall-clock + virtual-time benchmark for the whole stack.

Six named workloads, each stressing a different set of ``repro`` layers,
timed from outside the program.  ``BENCHMARK.json`` at the repository
root is the registry: every metric name, unit and regression bound lives
there, and the harness refuses to emit a name it does not declare.

    python3 -m perfbench                      # every workload, both modes
    python3 -m perfbench --workload serial_tree --seed 3 --seconds 10 --trace 0
    python3 -m perfbench --compare A.json B.json

See ``perfbench/README.md`` for the workloads, the metrics and how the
layers are expected to move them.
"""

import importlib.util
import json
import os
import sys

PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(PACKAGE_DIR)
#: Scratch space for campaign stores and per-run detail files.  Inside
#: the package so a run writes nothing outside it; emptied after use.
WORK_ROOT = os.path.join(PACKAGE_DIR, ".work")


def ensure_repro() -> None:
    """Make ``repro`` importable from the checkout's ``src`` directory.

    The benchmark is launched from a bare checkout with no
    ``PYTHONPATH``; an already importable ``repro`` wins.  Raises
    ``ImportError`` when the checkout holds no program to measure.
    """
    if importlib.util.find_spec("repro") is not None:
        return
    src = os.path.join(REPO_ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise ImportError(f"no repro package importable or under {src}")
    sys.path.insert(0, src)


def load_contract() -> dict:
    """``BENCHMARK.json``: workload names, metric names, units, bounds."""
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)
