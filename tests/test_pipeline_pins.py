"""Pinned bits of the product pipeline and of its three hot stages.

``serial_pins.json`` pins the treecode and the neighbour search; this
file pins what ``run_pipeline`` is made of, the same way: the flat
``summary()`` of two small scenarios (one whose box forms halos, one
whose box does not), ``PMSolver(12).accelerations`` on a seeded load
with and without weights, every array ``adapt_smoothing`` returns for a
seeded polytrope, and the ``center`` / ``mass`` / ``members`` of every
halo of a clustered periodic box with non-uniform masses.  Floats are
hex strings, arrays blake2b digests of their bytes, so "the same
answer" means the same bits.

The numpy kernels are pinned: ``backend="numpy"`` where a call takes
one, and the whole file is skipped when the process default is
``numba`` (the pipeline's structure and supernova stages run the
default).  ``tests/golden/pipeline_pins.json`` was
written at the parent of PR 23, before the CIC stencil, the single
density sum and the size-class halo reduction.  To bless an intentional
change:

    PYTHONPATH=src python -m tests.test_pipeline_pins --regen
"""

import json
import os

import numpy as np
import pytest

from repro.campaign import PipelineSpec
from repro.core import get_backend
from repro.cosmology.fof import friends_of_friends
from repro.cosmology.pm import PMSolver
from repro.pipeline import run_pipeline
from repro.sph.collapse import polytrope_particles
from repro.sph.density import adapt_smoothing
from tests.test_parallel_pins import _digest

pytestmark = pytest.mark.skipif(get_backend(None).name == "numba",
                                reason="pins the numpy kernels' float sums")

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                         "pipeline_pins.json")

PIPELINES = {
    "halos-n12": dict(sn_particles=48, sn_steps=3),
    "no-halos-n4": dict(n_side=4, a_final=0.2, sn_particles=16, sn_steps=2,
                        with_neutrinos=False),
}


def _hex(value):
    return float(value).hex() if isinstance(value, (float, np.floating)) else int(value)


def _observe_pipeline(name: str) -> dict:
    summary = run_pipeline(PipelineSpec(**PIPELINES[name]), backend="numpy").summary()
    return {key: _hex(value) for key, value in sorted(summary.items())}


def _observe_pm() -> dict:
    rng = np.random.default_rng(2303)
    # Some particles outside [0, 1) and one on each face: the wrap is pinned too.
    pos = rng.random((700, 3)) * 1.4 - 0.2
    pos[0], pos[1] = (0.0, 1.0, 0.5), (1.0 - 2.0**-53, 0.25, 0.0)
    weights = 0.5 + rng.random(700)
    solver = PMSolver(12, backend="numpy")
    return {"unweighted": _digest([solver.accelerations(pos)]),
            "weighted": _digest([solver.accelerations(pos, weights)]),
            "delta": _digest([solver.density_contrast(pos, weights)])}


def _observe_smoothing() -> dict:
    out = {}
    for max_iters in (1, 4):
        pos, masses, _ = polytrope_particles(300, seed=2304)
        tree, dens = adapt_smoothing(pos, masses, n_target=24, max_iters=max_iters,
                                     backend="numpy")
        out[f"max_iters{max_iters}"] = {
            "rho": _digest([dens.rho]), "h": _digest([dens.h]),
            "offsets": _digest([dens.neighbors.offsets]),
            "neighbors": _digest([dens.neighbors.neighbors]),
            "order": _digest([tree.order]), "n_iterations": dens.n_iterations,
        }
    return out


def _observe_fof() -> dict:
    rng = np.random.default_rng(2305)
    # Blobs of many sizes (so several halos share a member count), two of
    # them straddling a periodic face, over a uniform background.
    centres = rng.random((40, 3))
    centres[0], centres[1] = (0.999, 0.5, 0.001), (0.0, 0.0, 0.0)
    sizes = rng.integers(2, 9, size=40)
    blobs = [c + 0.004 * rng.standard_normal((k, 3)) for c, k in zip(centres, sizes)]
    pos = np.concatenate(blobs + [rng.random((400, 3))])
    masses = 0.5 + rng.random(pos.shape[0])
    res = friends_of_friends(pos, masses, linking_length=0.2, min_members=2, backend="numpy")
    return {
        "n_halos": res.n_halos,
        "sizes": [h.n_members for h in res.halos],
        "mass": [float(h.mass).hex() for h in res.halos],
        "center": _digest([h.center for h in res.halos]),
        "members": _digest([h.members for h in res.halos]),
        "group_id": _digest([res.group_id]),
    }


def _observe() -> dict:
    return {
        "pipeline": {name: _observe_pipeline(name) for name in sorted(PIPELINES)},
        "pm": _observe_pm(),
        "smoothing": _observe_smoothing(),
        "fof": _observe_fof(),
    }


def _pins() -> dict:
    with open(PINS_PATH) as fh:
        return json.load(fh)


_REGEN = ("moved; if the change is intentional, regenerate with "
          "`PYTHONPATH=src python -m tests.test_pipeline_pins --regen`")


@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_pipeline_summary_pinned(name):
    pins = _pins()["pipeline"]
    assert sorted(pins) == sorted(PIPELINES)
    assert _observe_pipeline(name) == pins[name], f"{name} {_REGEN}"


def test_the_two_scenarios_differ_in_having_halos():
    pins = _pins()["pipeline"]
    assert pins["halos-n12"]["n_halos"] > 0 and pins["no-halos-n4"]["n_halos"] == 0


def test_pm_accelerations_pinned():
    assert _observe_pm() == _pins()["pm"], f"PM {_REGEN}"


def test_adapt_smoothing_pinned():
    seen = _observe_smoothing()
    assert seen == _pins()["smoothing"], f"adapt_smoothing {_REGEN}"
    assert seen["max_iters1"]["n_iterations"] == 1 < seen["max_iters4"]["n_iterations"]


def test_fof_halos_pinned():
    seen = _observe_fof()
    assert seen == _pins()["fof"], f"FoF {_REGEN}"
    # The catalog exercises what the pin is for: size classes of several halos.
    assert len(seen["sizes"]) > len(set(seen["sizes"])) > 1


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        with open(PINS_PATH, "w") as fh:
            json.dump(_observe(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {PINS_PATH}")
    else:
        print(__doc__)
