"""Pinned contract of the parallel treecode.

A matrix of small configurations — both entry points x ``comm`` x
``eval`` x prefetch on/off x 1/3/8 ranks x uniform/clustered/coincident
clouds x rebalance x cold/warm cache, and three force-only runs above
the flat-collective limit (P=40, P=64, P=128) — whose *modelled*
outcome is pinned in ``tests/golden/parallel_pins.json``: virtual
seconds (hex), message and byte totals, interaction counts, the full
summed ``comm`` statistics and a blake2b digest of the physics.
All of it is a pure function of the event sequence the rank programs
yield and of the order of the float sums, so a change meant only to make
``repro.core.parallel`` faster on the host must not move any of it.

The pins hold with every kernel call split over threads (``-p
tests.split_kernels``): a split call is bit-identical to an inline one,
so even the physics digest does not move.

To bless an intentional change:

    PYTHONPATH=src python tests/test_parallel_pins.py --regen
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.core import ParallelConfig, parallel_nbody_run, parallel_tree_accelerations
from repro.core.parallel import _MAX_ROUNDS, _Traversal
from repro.simmpi import SpaceSimulatorCost

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                         "parallel_pins.json")


def _cloud(kind: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(2003)
    if kind == "uniform":
        return rng.random((n, 3)), rng.random(n) / n
    if kind == "clustered":
        d = rng.standard_normal((n, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        return (rng.random(n) ** 3)[:, None] * d, np.full(n, 1.0 / n)
    # coincident: twelve sites, so leaves overflow the bucket at the
    # deepest level, and a few massless particles.
    sites = rng.random((12, 3))
    masses = np.full(n, 1.0 / n)
    masses[::17] = 0.0
    return sites[rng.integers(0, 12, n)], masses


def _plummer(n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Plummer-sphere positions (radii clipped at 10) and equal masses."""
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    r = np.clip(1.0 / np.sqrt(u ** (-2.0 / 3.0) - 1.0), None, 10.0)
    d = rng.standard_normal((n, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return r[:, None] * d, np.full(n, 1.0 / n)


def _configs() -> dict[str, dict]:
    """name -> keyword description of one pinned run."""
    out: dict[str, dict] = {}
    # pf0 is the prefetch switched off (no waves), pf1 the default 8.
    force_modes = [("async", "batched", 8), ("async", "batched", 0),
                   ("blocking", "batched", 8), ("async", "pergroup", 8),
                   ("blocking", "pergroup", 8)]
    for cloud in ("uniform", "clustered", "coincident"):
        for ranks in (1, 3, 8):
            modes = force_modes if ranks > 1 else [force_modes[0], force_modes[4]]
            for comm, ev, waves in modes:
                out[f"force-{comm}-{ev}-pf{int(waves > 0)}-r{ranks}-{cloud}"] = dict(
                    entry="force", cloud=cloud, n=160, ranks=ranks,
                    cfg=dict(comm=comm, eval=ev, prefetch_rounds=waves))
        for ranks in (3, 8):
            for rebalance in (True, False):
                for warm in (True, False):
                    out[f"nbody-async-batched-pf1-r{ranks}-{cloud}-rb{int(rebalance)}-"
                        f"{'warm' if warm else 'cold'}"] = dict(
                        entry="nbody", cloud=cloud, n=160, ranks=ranks, rebalance=rebalance,
                        warm=warm, cfg=dict())
            out[f"nbody-blocking-batched-pf1-r{ranks}-{cloud}-rb1-warm"] = dict(
                entry="nbody", cloud=cloud, n=160, ranks=ranks, rebalance=True, warm=True,
                cfg=dict(comm="blocking"))
            out[f"nbody-async-pergroup-pf0-r{ranks}-{cloud}-rb1-warm"] = dict(
                entry="nbody", cloud=cloud, n=160, ranks=ranks, rebalance=True, warm=True,
                cfg=dict(eval="pergroup", prefetch_rounds=0))
        out[f"nbody-async-batched-pf1-r1-{cloud}-rb1-warm"] = dict(
            entry="nbody", cloud=cloud, n=160, ranks=1, rebalance=True, warm=True, cfg=dict())
    for ranks in (40, 64, 128):  # tree collectives and the sparse request round
        out[f"force-async-batched-pf1-r{ranks}-uniform"] = dict(
            entry="force", cloud="uniform", n=3 * ranks, ranks=ranks, cfg=dict())
    out["nbody-async-batched-pf1-r4-uniform-rb1-warm-creep"] = dict(
        entry="nbody", cloud="uniform", n=300, ranks=4, rebalance=True, warm=True, dt=1e-9,
        cfg=dict())
    return out


CONFIGS = _configs()


def _run(spec: dict):
    pos, masses = _cloud(spec["cloud"], spec["n"])
    config = ParallelConfig(theta=0.7, eps=0.02, bucket_size=8, **spec["cfg"])
    if spec["entry"] == "force":
        res = parallel_tree_accelerations(pos, masses, n_ranks=spec["ranks"], config=config,
                                          cost=SpaceSimulatorCost(), record_trace=False)
        physics = [res.accelerations, res.potentials]
    else:
        res = parallel_nbody_run(pos, masses, n_ranks=spec["ranks"], n_steps=2,
                                 dt=spec.get("dt", 2e-2),
                                 config=config, cost=SpaceSimulatorCost(),
                                 cache_across_steps=spec["warm"], rebalance=spec["rebalance"],
                                 record_trace=False)
        physics = [*res.step_accelerations, res.positions, res.velocities]
    return res, physics


def _digest(physics) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in physics:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _observe(spec: dict) -> dict:
    res, physics = _run(spec)
    return {
        "counts": [res.counts.p2p, res.counts.p2c, res.counts.groups],
        "digest": _digest(physics),
        "elapsed": res.sim.elapsed.hex(),
        "msgs": sum(s.msgs_sent for s in res.sim.stats),
        "bytes": sum(s.bytes_sent for s in res.sim.stats),
        "comm": {k: res.comm[k] for k in sorted(res.comm)},
    }


def _pins() -> dict:
    with open(PINS_PATH) as fh:
        return json.load(fh)


def test_matrix_is_the_pinned_one():
    assert len(CONFIGS) >= 40
    assert sorted(_pins()) == sorted(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_pinned(name):
    spec = CONFIGS[name]
    seen, want = _observe(spec), _pins()[name]
    assert seen == want, (
        f"{name} moved; if the change is intentional, regenerate with "
        "`PYTHONPATH=src python tests/test_parallel_pins.py --regen`")


@pytest.mark.parametrize("name", ["force-async-batched-pf0-r8-coincident",
                                  "force-blocking-batched-pf1-r8-coincident"])
def test_request_rounds_bound(name, monkeypatch):
    """The coincident cloud, whose leaves sit at the deepest level,
    needs a few of the ``_MAX_ROUNDS`` request rounds derived in
    ``_Traversal.traverse_async`` (with no prefetch to fetch ahead); a
    rank whose replies are dropped is refused once its walks have
    passed ``_MAX_ROUNDS + 1`` times."""
    spec = CONFIGS[name]
    run, admit, advance = _Traversal.run, _Traversal.admit, _Traversal.advance_round
    rounds, walks = [], []

    def recording(self):
        out = yield from run(self)
        rounds.append(out[-1]["rounds"])
        return out

    monkeypatch.setattr(_Traversal, "run", recording)
    _run(spec)
    assert 0 < 2 * max(rounds) <= _MAX_ROUNDS

    def lossy(self, replies):
        return np.empty(0, dtype=np.int64) if self.comm.rank == 0 else admit(self, replies)

    def counting(self, *args):
        walks.append(self.comm.rank)
        return advance(self, *args)

    monkeypatch.setattr(_Traversal, "admit", lossy)
    monkeypatch.setattr(_Traversal, "advance_round", counting)
    with pytest.raises(RuntimeError, match="did not converge"):
        _run(spec)
    assert walks.count(0) == _MAX_ROUNDS + 1  # the last round finds its keys still missing


def regen() -> None:
    pins = {name: _observe(spec) for name, spec in sorted(CONFIGS.items())}
    with open(PINS_PATH, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {PINS_PATH} ({len(pins)} configurations)")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        regen()
    else:
        print(__doc__)
