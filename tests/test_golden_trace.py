"""Golden-trace regression suite.

Three fixed-seed scenarios — a 4-rank SimMPI communication pattern, a
small parallel treecode run, and a serial batched-kernel pipeline
(gravity + SPH) on a deterministic tick clock — are exported as
canonical JSON and compared byte-for-byte against fixtures committed
under ``tests/golden/``.  Floats are normalized to 9 significant digits
(:func:`repro.obs.dumps_canonical`), so the comparison is immune to
formatting and last-ulp noise but fails loudly on any semantic change
to engine scheduling, cost models, the treecode's communication
structure, or the batched kernels' span/counter emission.

To bless an intentional change:

    PYTHONPATH=src python tests/test_golden_trace.py --regen
"""

import contextlib
import itertools
import os

import numpy as np
import pytest

from repro.core import ParallelConfig, parallel_tree_accelerations, tree_accelerations
from repro.obs import Recorder, chrome_trace, dumps_canonical, metrics, wallclock
from repro.simmpi import Comm, SpaceSimulatorCost, run
from repro.simmpi.trace import utilization
from repro.sph import compute_sph_forces, density_sum

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

N_RANKS = 4


def _simmpi_scenario():
    """A deterministic 4-rank program exercising every span category."""

    def program(comm: Comm):
        rank = comm.rank
        yield comm.compute(flops=2e6 * (rank + 1), mem_bytes=1e5, label="warmup")
        yield comm.barrier()
        req = yield comm.isend(b"p" * (1000 * (rank + 1)), dest=(rank + 1) % comm.size)
        yield comm.recv(source=(rank - 1) % comm.size)
        yield comm.wait(req)
        total = yield comm.allreduce(rank)
        yield comm.elapse(1e-4 * (total + 1), label="postprocess")

    return run(program, N_RANKS, SpaceSimulatorCost())


def _treecode_scenario():
    """A small fixed-seed parallel treecode run (the Table 6 pipeline)."""
    rng = np.random.default_rng(123)
    r = rng.random(256) ** (1.0 / 3.0)
    d = rng.standard_normal((256, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    pos = r[:, None] * d
    masses = np.full(256, 1.0 / 256)
    cfg = ParallelConfig(theta=0.8, eps=0.05, bucket_size=16)
    return parallel_tree_accelerations(
        pos, masses, n_ranks=N_RANKS, config=cfg, cost=SpaceSimulatorCost()
    ).sim


def _serial_pipeline() -> None:
    """Run the serial batched gravity + SPH hot paths once."""
    rng = np.random.default_rng(7)
    pos = rng.random((192, 3))
    masses = np.full(192, 1.0 / 192)
    res = tree_accelerations(pos, masses, theta=0.7, eps=0.02, bucket_size=16)
    tree = res.tree
    h = np.full(192, 0.12)
    rho, neigh = density_sum(tree, h)
    rho = np.maximum(rho, 1e-9)
    pressure = rho ** (5.0 / 3.0)
    cs = np.sqrt(5.0 / 3.0 * pressure / rho)
    compute_sph_forces(
        tree, neigh, rho=rho, pressure=pressure, sound_speed=cs,
        velocities=np.zeros((192, 3)), h=h,
    )


@contextlib.contextmanager
def _tick_recorder():
    """A recorder on a deterministic tick clock, installed as the
    ambient wall-clock recorder without ``profile()``'s root span, so
    the serial kernels' spans are the whole trace."""
    ticks = itertools.count()
    rec = Recorder(clock=lambda: float(next(ticks)))
    prev, wallclock.ACTIVE = wallclock.ACTIVE, rec
    try:
        yield rec
    finally:
        wallclock.ACTIVE = prev


def _serial_kernels_scenario() -> dict[str, str]:
    """The batched kernel spans/counters on a deterministic tick clock."""
    with _tick_recorder() as rec:
        _serial_pipeline()
    return {
        "trace": dumps_canonical(chrome_trace(rec, process_name="golden")),
        "metrics": dumps_canonical(metrics(rec)),
    }


def _artifacts(sim) -> dict[str, str]:
    """Canonical byte-stable artifacts for one simulation result."""
    doc = chrome_trace(sim.observer, process_name="golden")
    util = utilization(sim.trace, sim.elapsed, N_RANKS)
    return {
        "trace": dumps_canonical(doc),
        "utilization": dumps_canonical(
            {"elapsed": sim.elapsed, "ranks": util, "metrics": metrics(sim.observer)}
        ),
    }


SCENARIOS = {
    "simmpi_4rank": lambda: _artifacts(_simmpi_scenario()),
    "treecode_small": lambda: _artifacts(_treecode_scenario()),
    "serial_kernels": _serial_kernels_scenario,
}


def _fixture_path(scenario: str, artifact: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{scenario}_{artifact}.json")


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_golden(scenario):
    produced = SCENARIOS[scenario]()
    for artifact, text in sorted(produced.items()):
        path = _fixture_path(scenario, artifact)
        with open(path) as fh:
            expected = fh.read()
        assert text == expected, (
            f"{scenario}/{artifact} drifted from {path}; if the change is "
            "intentional, regenerate with "
            "`PYTHONPATH=src python tests/test_golden_trace.py --regen`"
        )


def test_golden_runs_are_deterministic():
    a = _artifacts(_simmpi_scenario())
    b = _artifacts(_simmpi_scenario())
    assert a == b
    assert _serial_kernels_scenario() == _serial_kernels_scenario()


def test_serial_kernel_spans_present():
    with _tick_recorder() as rec:
        _serial_pipeline()
    names = {s.name for s in rec.spans}
    assert {
        "gravity.compute_forces", "gravity.traversal",
        "gravity.kernel.cells", "gravity.kernel.direct",
        "sph.neighbors", "sph.density", "sph.forces",
    } <= names
    kinds = {s.name: dict(s.args or ()) for s in rec.spans}
    assert kinds["gravity.kernel.cells"]["backend"] == "numpy"
    assert kinds["gravity.kernel.direct"]["backend"] == "numpy"
    m = metrics(rec)
    for key in ("gravity.p2p", "gravity.p2c", "gravity.groups",
                "gravity.mac_tests", "gravity.traversal_passes",
                "sph.neighbor_candidates", "sph.density_pairs",
                "sph.force_pairs"):
        assert m[f"counter.{key}"] > 0, key


def test_null_recorder_emits_nothing(monkeypatch):
    """With no recorder installed, the batched kernels record nothing."""
    def refuse(*args, **kwargs):
        raise AssertionError("recorded with no recorder installed")

    monkeypatch.setattr(Recorder, "span", refuse)
    monkeypatch.setattr(Recorder, "count", refuse)
    _serial_pipeline()
    assert wallclock.ACTIVE is None


def regen() -> None:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for scenario, build in sorted(SCENARIOS.items()):
        arts = build()
        for artifact, text in sorted(arts.items()):
            path = _fixture_path(scenario, artifact)
            with open(path, "w") as fh:
                fh.write(text)
            print(f"wrote {path} ({len(text)} bytes)")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        regen()
    else:
        print(__doc__)
