"""Pinned bits of the product pipeline and of its three hot stages.

``serial_pins.json`` pins the treecode and the neighbour search; this
file pins what ``run_pipeline`` is made of, the same way: the flat
``summary()`` of two small scenarios (one whose box forms halos, one
whose box does not), ``PMSolver(12).accelerations`` on a seeded load
with and without weights, every array ``adapt_smoothing`` returns for a
seeded polytrope, and the ``center`` / ``mass`` / ``members`` of every
halo of a clustered periodic box with non-uniform masses, and
``PMSolver(8).accelerations`` plus the FoF catalog on three degenerate
loads (box-face and wrap coordinates, every particle coincident, fewer
particles than cells).  Floats are hex strings, arrays blake2b digests
of their bytes, so "the same answer" means the same bits.

Every call runs on the one kernel backend, numpy's.
``tests/golden/pipeline_pins.json`` was written before the CIC stencil,
the single density sum and the size-class halo reduction; its
``degenerate`` entries were added before the floor-based wrap and the
FoF slot map replaced ``np.mod`` and ``searchsorted``.  To bless an
intentional change:

    PYTHONPATH=src python -m tests.test_pipeline_pins --regen
"""

import json
import os

import numpy as np
import pytest

from repro.campaign import PipelineSpec
from repro.cosmology.fof import friends_of_friends
from repro.cosmology.pm import PMSolver
from repro.pipeline import run_pipeline
from repro.sph.collapse import polytrope_particles
from repro.sph.density import adapt_smoothing
from tests.test_parallel_pins import _digest

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
    summary = run_pipeline(PipelineSpec(**PIPELINES[name])).summary()
    return {key: _hex(value) for key, value in sorted(summary.items())}


def _observe_pm() -> dict:
    rng = np.random.default_rng(2303)
    # Some particles outside [0, 1) and one on each face: the wrap is pinned too.
    pos = rng.random((700, 3)) * 1.4 - 0.2
    pos[0], pos[1] = (0.0, 1.0, 0.5), (1.0 - 2.0**-53, 0.25, 0.0)
    weights = 0.5 + rng.random(700)
    solver = PMSolver(12)
    return {"unweighted": _digest([solver.accelerations(pos)]),
            "weighted": _digest([solver.accelerations(pos, weights)]),
            "delta": _digest([solver.density_contrast(pos, weights)])}


def _observe_smoothing() -> dict:
    out = {}
    for max_iters in (1, 4):
        pos, masses, _ = polytrope_particles(300, seed=2304)
        tree, dens = adapt_smoothing(pos, masses, n_target=24, max_iters=max_iters)
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
    res = friends_of_friends(pos, masses, linking_length=0.2, min_members=2)
    return {
        "n_halos": res.n_halos,
        "sizes": [h.n_members for h in res.halos],
        "mass": [float(h.mass).hex() for h in res.halos],
        "center": _digest([h.center for h in res.halos]),
        "members": _digest([h.members for h in res.halos]),
        "group_id": _digest([res.group_id]),
    }


#: The coordinates a wrap can get wrong: both zeros, the face, the last
#: double under it, a negative that ``mod(p, 1.0)`` rounds up to 1.0, and
#: a whole number of boxes away.
FACE_VALUES = (0.0, -0.0, 1.0, 1.0 - 2.0**-53, -1e-300, 7.0)


def _degenerate_loads() -> dict:
    rng = np.random.default_rng(2306)
    faces = np.array(np.meshgrid(*[FACE_VALUES] * 3, indexing="ij")).reshape(3, -1).T
    return {
        "faces": faces,  # every combination: 216 particles at the box corner
        "coincident": np.full((50, 3), (0.25, 0.5, 0.75)),  # on PM grid nodes
        "sparse": rng.random((5, 3)),  # 5 particles: 512 PM cells, 8^3 FoF cells
    }


def _observe_degenerate() -> dict:
    out = {}
    for name, pos in _degenerate_loads().items():
        masses = 0.5 + np.random.default_rng(2307).random(pos.shape[0])
        res = friends_of_friends(pos, masses, linking_length=0.2, min_members=1)
        out[name] = {
            "pm": _digest([PMSolver(8).accelerations(pos)]),
            "fof_sizes": [h.n_members for h in res.halos],
            "fof_mass": [float(h.mass).hex() for h in res.halos],
            "fof_center": _digest([h.center for h in res.halos]),
            "fof_group_id": _digest([res.group_id]),
        }
    return out


def _observe() -> dict:
    return {
        "pipeline": {name: _observe_pipeline(name) for name in sorted(PIPELINES)},
        "pm": _observe_pm(),
        "smoothing": _observe_smoothing(),
        "fof": _observe_fof(),
        "degenerate": _observe_degenerate(),
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


@pytest.mark.parametrize("name", ["faces", "coincident", "sparse"])
def test_degenerate_coordinates_pinned(name):
    """Face and wrap coordinates, one point for every particle, fewer
    particles than cells: PM forces and the FoF catalog keep their bits."""
    assert _observe_degenerate()[name] == _pins()["degenerate"][name], f"{name} {_REGEN}"


def test_degenerate_loads_are_what_they_say():
    loads = _degenerate_loads()
    assert set(np.unique(loads["faces"]).tolist()) >= {0.0, 1.0, 1.0 - 2.0**-53, -1e-300, 7.0}
    assert np.signbit(loads["faces"]).any()  # -0.0 is in there too
    assert loads["sparse"].shape[0] < 8**3
    pins = _pins()["degenerate"]
    assert pins["coincident"]["fof_sizes"] == [50]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_degenerate_refuses_non_finite(bad):
    pos = np.random.default_rng(2308).random((20, 3))
    pos[7, 1] = bad
    with pytest.raises(ValueError, match="positions must be finite"):
        PMSolver(8).accelerations(pos)
    with pytest.raises(ValueError, match="positions must be finite"):
        friends_of_friends(pos)


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        with open(PINS_PATH, "w") as fh:
            json.dump(_observe(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {PINS_PATH}")
    else:
        print(__doc__)
