"""Pinned bits of the serial treecode and the SPH neighbour search.

``tests/golden/parallel_pins.json`` pins the parallel code only; this
file pins the serial path the same way: for a handful of small
configurations (uniform / clustered / twelve-site / all-coincident /
single-particle clouds, ``bucket_size`` 1, 8 and 32, both acceptance
criteria, ``eps`` 0 and 0.05, ``G`` 1 and 2.5) a blake2b digest of
``tree_accelerations``' accelerations and potentials, its
:class:`~repro.core.traversal.InteractionCounts`, a digest of the
:class:`~repro.core.traversal.InteractionLists` by cell key (every
group in ascending key: its key, its accepted cells, a zero separator,
its external leaves, each in list order) with ``mac_tests`` and
``passes``; and for three trees a digest of ``find_neighbors``'
``offsets`` and ``neighbors``.  All of it is a pure function of the
walk's emission order and of the order of the float sums, so a change
to how the tree is walked must not move any of it; naming cells by key
rather than by row keeps the lists pin indifferent to how the tree
numbers its cells.

``tests/golden/serial_pins.json`` was written before the serial walk
moved onto the ``CellTable`` frontier, and its ``lists`` values
re-expressed by key (same code, same lists) before the tree's cells
were renumbered level by level.  Its two ``G = 2.5`` rows were written
before the rectangle kernels moved into one workspace a call.  To bless
an intentional change:

    PYTHONPATH=src python -m tests.test_serial_pins --regen
"""

import json
import os

import numpy as np
import pytest

from repro.core import AbsoluteErrorMAC, OpeningAngleMAC, build_tree, tree_accelerations
from repro.core.traversal import build_interaction_lists
from repro.sph.neighbors import find_neighbors
from tests.test_parallel_pins import _cloud as _parallel_cloud
from tests.test_parallel_pins import _digest

#: Not a cell key (the root is 1): ends a group's accepted cells.
_SEPARATOR = np.zeros(1, dtype=np.uint64)

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                         "serial_pins.json")


def _cloud(kind: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The parallel pins' clouds (``coincident``: twelve sites, so leaves
    overflow the bucket at the deepest level, and some massless
    particles), and ``point``: every particle at one point."""
    if kind == "point":
        return np.tile(np.random.default_rng(2003).random(3), (n, 1)), np.full(n, 1.0 / n)
    return _parallel_cloud(kind, n)


def _mac(spec):
    kind, value = spec
    return OpeningAngleMAC(value) if kind == "theta" else AbsoluteErrorMAC(value)


GRAVITY = {
    "uniform-b8-theta0.6-eps0": dict(cloud="uniform", n=400, bucket=8, mac=("theta", 0.6), eps=0.0),
    "uniform-b1-theta0.7-eps0.05": dict(cloud="uniform", n=300, bucket=1, mac=("theta", 0.7),
                                        eps=0.05),
    "uniform-b32-abs1e-2-eps0.05": dict(cloud="uniform", n=400, bucket=32, mac=("abs", 1e-2),
                                        eps=0.05),
    "clustered-b8-theta0.6-eps0.05": dict(cloud="clustered", n=400, bucket=8, mac=("theta", 0.6),
                                          eps=0.05),
    "clustered-b32-abs1e-3-eps0": dict(cloud="clustered", n=400, bucket=32, mac=("abs", 1e-3),
                                       eps=0.0),
    "clustered-b1-theta1.0-eps0": dict(cloud="clustered", n=200, bucket=1, mac=("theta", 1.0),
                                       eps=0.0),
    "sites-b8-abs1e-2-eps0.05": dict(cloud="coincident", n=160, bucket=8, mac=("abs", 1e-2),
                                     eps=0.05),
    "coincident-b8-theta0.6-eps0.05": dict(cloud="point", n=40, bucket=8, mac=("theta", 0.6),
                                           eps=0.05),
    "coincident-b1-theta0.6-eps0": dict(cloud="point", n=40, bucket=1, mac=("theta", 0.6),
                                        eps=0.0),
    "single-b8-theta0.6-eps0": dict(cloud="point", n=1, bucket=8, mac=("theta", 0.6), eps=0.0),
    # G != 1 scales the kernels' masses and their r^-5 terms.
    "uniform-b8-theta0.6-eps0-G2.5": dict(cloud="uniform", n=400, bucket=8, mac=("theta", 0.6),
                                          eps=0.0, G=2.5),
    "clustered-b32-theta0.6-eps0.05-G2.5": dict(cloud="clustered", n=400, bucket=32,
                                                mac=("theta", 0.6), eps=0.05, G=2.5),
}

NEIGHBORS = {
    "uniform-b8": dict(cloud="uniform", n=400, bucket=8, radius=0.15),
    "clustered-b32": dict(cloud="clustered", n=400, bucket=32, radius=0.2),
    "sites-b1": dict(cloud="coincident", n=160, bucket=1, radius=0.3),
}


def _observe_gravity(spec: dict) -> dict:
    pos, masses = _cloud(spec["cloud"], spec["n"])
    res = tree_accelerations(pos, masses, bucket_size=spec["bucket"], mac=_mac(spec["mac"]),
                             eps=spec["eps"], G=spec.get("G", 1.0))
    lists = build_interaction_lists(res.tree, _mac(spec["mac"]))
    keys = res.tree.cell_keys
    by_key = []
    for g in np.argsort(keys[lists.groups], kind="stable"):
        by_key += [keys[lists.groups[g:g + 1]], keys[lists.cells_of(g)], _SEPARATOR,
                   keys[lists.leaves_of(g)]]
    return {
        "acc": _digest([res.accelerations]),
        "pot": _digest([res.potentials]),
        "counts": [res.counts.p2p, res.counts.p2c, res.counts.groups],
        "lists": _digest(by_key),
        "list_counts": [lists.counts.p2p, lists.counts.p2c, lists.counts.groups],
        "mac_tests": lists.mac_tests,
        "passes": lists.passes,
    }


def _observe_neighbors(spec: dict) -> dict:
    pos, masses = _cloud(spec["cloud"], spec["n"])
    tree = build_tree(pos, masses, bucket_size=spec["bucket"])
    # Per-particle radii, so the group reach is not one constant.
    radii = spec["radius"] * (0.5 + np.random.default_rng(7).random(spec["n"]))
    lists = find_neighbors(tree, radii)
    return {"offsets": _digest([lists.offsets]), "neighbors": _digest([lists.neighbors]),
            "total": int(lists.neighbors.size)}


def _observe() -> dict:
    return {
        "gravity": {name: _observe_gravity(spec) for name, spec in sorted(GRAVITY.items())},
        "neighbors": {name: _observe_neighbors(spec) for name, spec in sorted(NEIGHBORS.items())},
    }


def _pins() -> dict:
    with open(PINS_PATH) as fh:
        return json.load(fh)


def test_matrix_is_the_pinned_one():
    pins = _pins()
    assert sorted(pins["gravity"]) == sorted(GRAVITY)
    assert sorted(pins["neighbors"]) == sorted(NEIGHBORS)


@pytest.mark.parametrize("name", sorted(GRAVITY))
def test_gravity_pinned(name):
    assert _observe_gravity(GRAVITY[name]) == _pins()["gravity"][name], (
        f"{name} moved; if the change is intentional, regenerate with "
        "`PYTHONPATH=src python -m tests.test_serial_pins --regen`")


@pytest.mark.parametrize("name", sorted(NEIGHBORS))
def test_neighbors_pinned(name):
    assert _observe_neighbors(NEIGHBORS[name]) == _pins()["neighbors"][name], (
        f"{name} moved; if the change is intentional, regenerate with "
        "`PYTHONPATH=src python -m tests.test_serial_pins --regen`")


@pytest.mark.parametrize("name", sorted({**GRAVITY, **NEIGHBORS}))
def test_child_rows_are_the_key_lookup(name):
    # `Tree.table` resolves child slot i to row i + 1 by the tree's
    # numbering, without a lookup: it must be what the lookup says.
    spec = {**GRAVITY, **NEIGHBORS}[name]
    pos, masses = _cloud(spec["cloud"], spec["n"])
    table = build_tree(pos, masses, bucket_size=spec["bucket"]).table
    rows, found = table.index.lookup(table.child_key[:table.n_kids])
    assert found.all() and np.array_equal(table.child_row, rows)


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        with open(PINS_PATH, "w") as fh:
            json.dump(_observe(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {PINS_PATH} ({len(GRAVITY)} + {len(NEIGHBORS)} configurations)")
    else:
        print(__doc__)
