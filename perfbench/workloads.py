"""The six workloads: inputs from a seed, one operation, checks, layer probes.

Each workload is one call a user of ``repro`` makes, at a size where one
call takes 0.35 to 0.5 s on a 2-core host, so a ten-second run holds 20
to 28 of them: contention on a shared host comes in spells of seconds,
and a run must be long enough in operations to hold quiet ones.
``SIZES`` are the measured sizes; ``SMOKE_SIZES`` keep the same shapes
tiny for the benchmark's own tests.  Why each workload exists is
recorded beside its name in ``BENCHMARK.json``.

A workload exposes:

* ``inputs(seed)``: everything the program is handed, generated here;
* ``run(inputs, workdir, backend=None)``: the timed operation;
* ``work(inputs, output)``: units of work one operation completes;
* ``check(tally, inputs, output)``: per-operation correctness, and a
  signature that must be identical on every repeat;
* ``check_once(tally, inputs, output, signature, scratch)``: costlier
  checks, made once per run on the warm-up operation, outside set-up;
* ``layers(probe)``: per-layer metrics for the traced run.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.campaign import ClusterSpec, PipelineSpec, ResultStore, run_campaign
from repro.campaign.fingerprint import scenario_fingerprint_hex
from repro.campaign.workers import execute_shard
from repro.core import (
    ParallelConfig,
    build_interaction_lists,
    build_tree,
    decompose,
    evaluate_interaction_lists,
    parallel_nbody_run,
    parallel_tree_accelerations,
    tree_accelerations,
)
from repro.core.mac import OpeningAngleMAC
from repro.core.procpool import run_tasks
from repro.pipeline import PIPELINE_STAGES, Uniform, draw_specs, run_pipeline
from repro.resilience.checkpoint import CheckpointStore
from repro.simmpi import patterns, run as simmpi_run
from repro.simmpi.cost import SpaceSimulatorCost

from .layers import Spans

#: Hard accuracy limit: the tree codes are timed "to a solution of
#: stated accuracy", so a median force error above this fails the run.
FORCE_ERR_LIMIT = 5e-3
FORCE_ERR_SINKS = 256

SIZES = {
    "nbody_compute": {"n": 2000, "ranks": 8, "steps": 2, "theta": 0.7, "eps": 0.02},
    "ranks_comm": {"ranks": 64, "per_rank": 2},
    "serial_tree": {"n": 12000, "theta": 0.7, "eps": 0.02},
    "pipeline_e2e": {"n_side": 18, "sn_particles": 150, "sn_steps": 6},
    "campaign_io": {"shards": 100, "duplicates": 10, "warm_reruns": 10},
    "ensemble_pool": {"scenarios": 8, "n_side": 12, "max_workers": 2, "dispatch_tasks": 96},
}

SMOKE_SIZES = {
    "nbody_compute": {"n": 400, "ranks": 4, "steps": 2, "theta": 0.7, "eps": 0.02},
    "ranks_comm": {"ranks": 16, "per_rank": 2},
    "serial_tree": {"n": 1500, "theta": 0.7, "eps": 0.02},
    "pipeline_e2e": {"n_side": 6, "sn_particles": 24, "sn_steps": 2},
    "campaign_io": {"shards": 12, "duplicates": 2, "warm_reruns": 2},
    "ensemble_pool": {"scenarios": 3, "n_side": 6, "max_workers": 2, "dispatch_tasks": 8},
}


class Tally:
    """Operations and checks attempted, and how many of them failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def ops(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{failed}/{attempted} {what}")

    def check(self, ok: bool, what: str) -> None:
        self.ops(1, 0 if ok else 1, what)


@dataclass
class Probe:
    """What the traced run hands a workload's ``layers``."""

    inputs: object
    output: object  # of the last traced operation
    spans: Spans
    traced_wall_s: float
    untraced_wall_s: float
    kernel_s: float
    scratch: Callable[[], str]  # a fresh empty directory, removed at exit


def sphere(n: int, seed: int):
    """The centrally concentrated sphere of the ROADMAP "wallclock" run."""
    rng = np.random.default_rng(seed)
    r = rng.random(n) ** (2.0 / 3.0)
    d = rng.standard_normal((n, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return r[:, None] * d, np.full(n, 1.0 / n)


def direct_sample(pos, masses, sinks, eps: float) -> np.ndarray:
    """Plummer-softened direct sum at ``pos[sinks]`` over every source.

    The benchmark's own oracle (G = 1): with ``eps > 0`` the self term
    has zero separation and so contributes nothing.
    """
    dr = pos[None, :, :] - pos[sinks][:, None, :]
    r2 = np.einsum("ijk,ijk->ij", dr, dr) + eps * eps
    return np.einsum("j,ijk,ij->ik", masses, dr, r2 ** -1.5)


def force_rel_err_p50(pos, masses, acc, eps: float, seed: int) -> float:
    """Median relative acceleration error on seeded sample sinks."""
    rng = np.random.default_rng([seed, 0xF0])
    sinks = rng.choice(pos.shape[0], size=min(FORCE_ERR_SINKS, pos.shape[0]), replace=False)
    exact = direct_sample(pos, masses, sinks, eps)
    err = np.linalg.norm(acc[sinks] - exact, axis=1) / np.linalg.norm(exact, axis=1)
    return float(np.median(err))


def dir_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(base, name))
        for base, _, names in os.walk(root)
        for name in names
    )


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _finite(*arrays) -> bool:
    return all(bool(np.isfinite(a).all()) for a in arrays)


def _sim_traffic(sim) -> tuple[int, int]:
    """(messages, bytes) sent over all simulated ranks."""
    return sum(s.msgs_sent for s in sim.stats), sum(s.bytes_sent for s in sim.stats)


def _sim_signature(sim, counts):
    return (sim.elapsed, *_sim_traffic(sim), (counts.p2p, counts.p2c, counts.groups))


def _sim_layers(probe: Probe, res) -> dict:
    """Exact engine and comm-layer counts of one simulated run."""
    sim, comm = res.sim, res.comm
    msgs, nbytes = _sim_traffic(sim)
    nonkernel = probe.traced_wall_s - probe.kernel_s
    lookups = comm.get("cache_hits", 0.0) + comm.get("cache_misses", 0.0)
    fetched = comm.get("prefetch_fetched", 0.0)
    return {
        "simmpi.virtual_s": sim.elapsed,
        "simmpi.virtual_mflops_per_proc":
            res.counts.flops / (len(sim.clocks) * sim.elapsed) / 1e6,
        "simmpi.msgs": msgs,
        "simmpi.bytes": nbytes,
        "simmpi.blocked_share": sum(s.blocked_s for s in sim.stats) / sum(sim.clocks),
        "simmpi.host_us_per_msg": nonkernel / msgs * 1e6,
        "core.parallel.nonkernel_s": nonkernel,
        "core.parallel.requests": comm.get("requests", 0.0),
        "core.parallel.batches": comm.get("batches", 0.0),
        "core.parallel.cache_hit_rate":
            comm.get("cache_hits", 0.0) / lookups if lookups else 0.0,
        "core.parallel.prefetch_used_share":
            comm.get("prefetch_used", 0.0) / fetched if fetched else 0.0,
        "core.traversal.cell_interactions": res.counts.p2c,
        "core.traversal.direct_interactions": res.counts.p2p,
    }


class Workload:
    name = ""
    work_unit = ""
    #: Processes one operation keeps busy; the host is calibrated with as many.
    processes = 1

    def __init__(self, sizes: dict | None = None):
        self.sizes = dict(SIZES[self.name] if sizes is None else sizes)

    def check_once(self, tally: Tally, inputs, output, signature, scratch) -> None:
        pass


class _TreeCode(Workload):
    """The two tree codes: a seeded sphere in, forces of stated accuracy out."""

    work_unit = "particle-steps"

    def inputs(self, seed: int):
        return sphere(self.sizes["n"], seed) + (seed,)

    def check_once(self, tally, inputs, res, signature, scratch):
        tally.check(self.force_error(inputs, res) < FORCE_ERR_LIMIT,
                    "median force error above limit")


class NbodyCompute(_TreeCode):
    name = "nbody_compute"

    def run(self, inputs, workdir, backend=None, record_trace=False):
        pos, masses, _ = inputs
        s = self.sizes
        return parallel_nbody_run(
            pos, masses, n_ranks=s["ranks"], n_steps=s["steps"], dt=1e-3,
            config=ParallelConfig(theta=s["theta"], eps=s["eps"], backend=backend),
            cost=SpaceSimulatorCost(), record_trace=record_trace,
        )

    def work(self, inputs, output) -> float:
        return self.sizes["n"] * self.sizes["steps"]

    def check(self, tally, inputs, res):
        tally.check(_finite(res.positions, res.velocities, *res.step_accelerations),
                    "non-finite n-body state")
        tally.check(res.sim.elapsed > 0, "no virtual time elapsed")
        return _sim_signature(res.sim, res.counts)

    def force_error(self, inputs, res) -> float:
        pos, masses, seed = inputs
        # The first step's forces are evaluated at the input positions.
        return force_rel_err_p50(pos, masses, res.step_accelerations[0],
                                 self.sizes["eps"], seed)

    def layers(self, probe: Probe) -> dict:
        pos, masses, _ = probe.inputs
        s = self.sizes
        res = probe.output
        out = _sim_layers(probe, res)
        out["core.traversal.force_rel_err_p50"] = self.force_error(probe.inputs, res)

        out["core.domain.decompose_s"], dec = probe.spans.timed(
            "core.domain.decompose", lambda: decompose(pos, n_pieces=s["ranks"]), repeat=3)
        out["core.domain.imbalance"] = max(res.work_imbalance)

        def build_all():
            sorted_pos, sorted_m = pos[dec.order], masses[dec.order]
            return [build_tree(sorted_pos[dec.piece(p)], sorted_m[dec.piece(p)])
                    for p in range(dec.n_pieces)]

        out["core.tree.build_s"], trees = probe.spans.timed("core.tree.build", build_all, repeat=3)
        out["core.tree.cells"] = sum(t.n_cells for t in trees)

        recorded_s, _ = probe.spans.timed(
            "obs.record_trace",
            lambda: self.run(probe.inputs, None, record_trace=True), repeat=3)
        unrecorded_s, _ = probe.spans.timed(
            "obs.no_record_trace", lambda: self.run(probe.inputs, None), repeat=3)
        out["obs.record_trace_overhead_share"] = (recorded_s - unrecorded_s) / unrecorded_s
        return out


def _patterns_program(comm):
    """Scheduler-only rank program: allgather, then one sparse
    request/reply round to four ring neighbours.  No treecode Python."""
    ranks = yield from patterns.allgather(comm, comm.rank)
    requests = [None] * comm.size
    for hop in (1, 2, 3, 4):
        peer = (comm.rank + hop) % comm.size
        if peer != comm.rank:
            requests[peer] = [comm.rank, hop]
    replies, _ = yield from patterns.batched_request_reply(
        comm, requests, lambda peer, batch: batch, sparse=True)
    return len(ranks), sum(r is not None for r in replies)


class RanksComm(Workload):
    name = "ranks_comm"
    work_unit = "messages"

    def inputs(self, seed: int):
        rng = np.random.default_rng(seed)
        return rng.random((self.sizes["per_rank"] * self.sizes["ranks"], 3))

    def run(self, pos, workdir, backend=None):
        return parallel_tree_accelerations(
            pos, n_ranks=self.sizes["ranks"], config=ParallelConfig(backend=backend),
            cost=SpaceSimulatorCost(), record_trace=False,
        )

    def work(self, pos, res) -> float:
        return _sim_traffic(res.sim)[0]

    def check(self, tally, pos, res):
        tally.check(_finite(res.accelerations, res.potentials), "non-finite accelerations")
        tally.check(res.sim.elapsed > 0, "no virtual time elapsed")
        return _sim_signature(res.sim, res.counts)

    def layers(self, probe: Probe) -> dict:
        out = _sim_layers(probe, probe.output)
        ranks = self.sizes["ranks"]
        out["simmpi.patterns_s"], sim = probe.spans.timed(
            "simmpi.patterns",
            lambda: simmpi_run(_patterns_program, ranks, SpaceSimulatorCost(),
                               record_trace=False),
            repeat=3)
        if any(ret[0] != ranks for ret in sim.returns):
            raise AssertionError("patterns probe: allgather lost ranks")
        return out


class SerialTree(_TreeCode):
    name = "serial_tree"

    def run(self, inputs, workdir, backend=None):
        pos, masses, _ = inputs
        return tree_accelerations(pos, masses, theta=self.sizes["theta"],
                                  eps=self.sizes["eps"], backend=backend)

    def work(self, inputs, output) -> float:
        return self.sizes["n"]

    def check(self, tally, inputs, res):
        tally.check(_finite(res.accelerations, res.potentials), "non-finite accelerations")
        c = res.counts
        return (c.p2p, c.p2c, c.groups, float(np.abs(res.accelerations).sum()))

    def force_error(self, inputs, res) -> float:
        pos, masses, seed = inputs
        return force_rel_err_p50(pos, masses, res.accelerations, self.sizes["eps"], seed)

    def layers(self, probe: Probe) -> dict:
        pos, masses, _ = probe.inputs
        s = self.sizes
        spans = probe.spans
        build_s, tree = spans.timed("core.tree.build", lambda: build_tree(pos, masses), repeat=3)
        lists_s, lists = spans.timed(
            "core.traversal.lists",
            lambda: build_interaction_lists(tree, OpeningAngleMAC(s["theta"])), repeat=3)
        eval_s, _ = spans.timed(
            "core.traversal.eval",
            lambda: evaluate_interaction_lists(tree, lists, eps=s["eps"]), repeat=3)
        return {
            "core.tree.build_s": build_s,
            "core.tree.cells": tree.n_cells,
            "core.traversal.lists_s": lists_s,
            "core.traversal.eval_s": eval_s,
            "core.traversal.cell_interactions": lists.counts.p2c,
            "core.traversal.direct_interactions": lists.counts.p2p,
            "core.traversal.force_rel_err_p50": self.force_error(probe.inputs, probe.output),
        }


#: Pipeline stage name -> the per-layer metric that times it.
_STAGE_METRIC = {
    "ics": "cosmology.ics_s",
    "structure": "cosmology.pm_s",
    "halos": "cosmology.fof_s",
    "power": "cosmology.power_s",
    "supernova": "sph.collapse_s",
}


class PipelineE2E(Workload):
    name = "pipeline_e2e"
    work_unit = "scenarios"

    def inputs(self, seed: int):
        s = self.sizes
        return PipelineSpec(n_side=s["n_side"], sn_particles=s["sn_particles"],
                            sn_steps=s["sn_steps"], seed=seed)

    def run(self, spec, workdir, backend=None):
        return run_pipeline(spec, backend=backend)

    def work(self, spec, products) -> float:
        return 1.0

    def check(self, tally, spec, products):
        hmf = products.mass_function
        summary = products.summary()
        tally.check(sum(hmf.counts) == hmf.n_halos, "mass function does not sum to n_halos")
        tally.check(hmf.largest <= spec.n_side ** 3, "largest halo exceeds the particle load")
        tally.check(len(products.light_curve.times) == spec.sn_steps,
                    "light curve length differs from sn_steps")
        tally.check(all(np.isfinite(float(v)) for v in summary.values()),
                    "non-finite summary value")
        return tuple(sorted(summary.items()))

    def layers(self, probe: Probe) -> dict:
        spec, spans = probe.inputs, probe.spans
        chains, whole = [], []
        for _ in range(3):
            state: dict = {}
            seconds = {}
            with spans.span("pipeline.stages"):
                for stage in PIPELINE_STAGES:
                    seconds[stage.name], produced = spans.timed(
                        f"pipeline.stage.{stage.name}", lambda: stage.run(spec, state, None))
                    state.update(produced)
            chains.append(seconds)
            whole.append(spans.timed("pipeline.run", lambda: run_pipeline(spec))[0])
        whole_s = statistics.median(whole)
        out = {metric: statistics.median(chain[name] for chain in chains)
               for name, metric in _STAGE_METRIC.items()}
        out["cosmology.halos"] = state["n_halos"]
        out["sph.steps"] = len(state["lc_times"])
        out["pipeline.overhead_s"] = whole_s - statistics.median(
            sum(chain.values()) for chain in chains)

        ckpt_dirs = [probe.scratch() for _ in range(3)]
        fresh = iter(ckpt_dirs)
        with_ckpt_s, _ = spans.timed(
            "pipeline.checkpointed",
            lambda: run_pipeline(spec, checkpoint_dir=next(fresh)), repeat=3)
        ckpt_dir = ckpt_dirs[-1]
        out["pipeline.checkpoint_s"] = with_ckpt_s - whole_s
        out["pipeline.checkpoint_bytes"] = dir_bytes(ckpt_dir)
        out["pipeline.resume_s"], resumed = spans.timed(
            "pipeline.resume", lambda: run_pipeline(spec, checkpoint_dir=ckpt_dir), repeat=3)
        if resumed.summary() != probe.output.summary():
            raise AssertionError("resumed pipeline products differ from a fresh run")
        return out


def _ledger_payload(records: list[dict], n: int):
    """A campaign-ledger-shaped checkpoint payload of ``n`` entries."""
    entries = []
    for i in range(n):
        record = dict(records[i % len(records)])
        record["fingerprint"] = hashlib.blake2b(
            f"{i}".encode(), digest_size=16).hexdigest()
        entries.append(record)
    digests = np.array([np.frombuffer(bytes.fromhex(e["fingerprint"]), dtype=np.uint8)
                        for e in entries])
    return {"digests": digests}, {"records": entries}


class CampaignIO(Workload):
    name = "campaign_io"
    work_unit = "shards"

    def inputs(self, seed: int):
        s = self.sizes
        rng = np.random.default_rng(seed)
        unique = s["shards"] - s["duplicates"]
        nodes = rng.integers(2, 4096, unique)
        hours = rng.uniform(1.0, 100.0, unique)
        catalog = [ClusterSpec(n_nodes=int(n), work_hours=float(h))
                   for n, h in zip(nodes, hours)]
        catalog += [catalog[int(i)] for i in rng.integers(0, unique, s["duplicates"])]
        return catalog

    def run(self, catalog, workdir, backend=None):
        t0 = time.perf_counter()
        cold = run_campaign(catalog, workdir, workers=1)
        t1 = time.perf_counter()
        warm = [run_campaign(catalog, workdir, workers=1)
                for _ in range(self.sizes["warm_reruns"])]
        t2 = time.perf_counter()
        return {"cold": cold, "warm": warm, "cold_s": t1 - t0, "warm_s": t2 - t1,
                "store": workdir}

    def work(self, catalog, out) -> float:
        return len(catalog) * (1 + len(out["warm"]))

    def check(self, tally, catalog, out):
        cold = out["cold"]
        unique = len(set(catalog))
        tally.ops(len(catalog), cold.failed, "cold shards failed")
        tally.check(cold.computed == cold.unique == unique,
                    "cold pass did not compute every unique shard")
        tally.check(cold.dedupe_hits == len(catalog) - unique, "dedupe hits miscounted")
        for warm in out["warm"]:
            missed = warm.unique - warm.cache_hits
            tally.ops(len(catalog), warm.failed + missed, "warm shards not served from cache")
        return file_digest(os.path.join(out["store"], "results.jsonl"))

    def layers(self, probe: Probe) -> dict:
        catalog, spans, op = probe.inputs, probe.spans, probe.output
        unique = list(dict.fromkeys(catalog))
        out = {
            "campaign.cold_s": op["cold_s"],
            "campaign.warm_s": op["warm_s"],
            "campaign.warm_shards_per_s": len(catalog) * len(op["warm"]) / op["warm_s"],
            "campaign.cache_hit_rate":
                statistics.mean(w.cache_hits / w.unique for w in op["warm"]),
            "campaign.dedupe_hit_rate": op["cold"].dedupe_hits / op["cold"].total_shards,
        }
        out["campaign.fingerprint_s"], _ = spans.timed(
            "campaign.fingerprint",
            lambda: [scenario_fingerprint_hex(s) for s in catalog], repeat=3)
        out["campaign.compute_s"], _ = spans.timed(
            "campaign.compute",
            lambda: [execute_shard(s.to_dict()) for s in unique], repeat=3)
        out["campaign.store_s"] = (
            op["cold_s"] - out["campaign.fingerprint_s"] - out["campaign.compute_s"])

        store_dir = probe.scratch()
        run_campaign(catalog, store_dir, workers=1)
        out["campaign.store_bytes"] = dir_bytes(store_dir)
        records = list(ResultStore(store_dir).load_results().values())
        final = ResultStore(probe.scratch())

        def finalize():
            final.write_results(records)
            final.build_index()

        out["campaign.finalize_s"], _ = spans.timed("campaign.finalize", finalize, repeat=3)

        ckpt_root = probe.scratch()
        for n in (100, 600):
            arrays, meta = _ledger_payload(records, n)
            ckpt = CheckpointStore(os.path.join(ckpt_root, str(n)))
            epochs = iter(range(3))

            def commit():
                epoch = next(epochs)
                ckpt.write_rank(epoch, 0, arrays, meta)
                ckpt.commit(epoch, {"completed": n})

            out[f"resilience.commit_s_{n}"], _ = spans.timed(
                f"resilience.commit_{n}", commit, repeat=3)
        out["resilience.commit_bytes_600"] = dir_bytes(ckpt.epoch_dir(0))
        return out


def _noop() -> None:
    return None


class EnsemblePool(Workload):
    name = "ensemble_pool"
    work_unit = "scenarios"

    @property
    def workers(self) -> int:
        return min(self.sizes["max_workers"], os.cpu_count() or 1)

    @property
    def processes(self) -> int:
        return self.workers

    def inputs(self, seed: int):
        return draw_specs(
            PipelineSpec(n_side=self.sizes["n_side"]),
            {"seed": Uniform(low=1, high=2 ** 30), "omega0": Uniform(low=0.15, high=0.45)},
            self.sizes["scenarios"], seed=seed,
        )

    def run(self, specs, workdir, backend=None, workers=None):
        report = run_campaign(specs, workdir,
                              workers=self.workers if workers is None else workers)
        return {"report": report, "store": workdir}

    def work(self, specs, out) -> float:
        return len(specs)

    def check(self, tally, specs, out):
        report = out["report"]
        tally.ops(len(specs), report.failed, "scenarios failed")
        tally.check(report.computed == report.unique, "not every unique scenario was computed")
        return file_digest(os.path.join(out["store"], "results.jsonl"))

    def check_once(self, tally, specs, out, signature, scratch):
        serial = self.run(specs, scratch(), workers=1)
        tally.check(self.check(tally, specs, serial) == signature,
                    "pooled results differ from workers=1")

    def layers(self, probe: Probe) -> dict:
        spans = probe.spans
        # By now a workers=1 run has imported every physics module into
        # this process, so forked workers inherit them: the pool's own
        # speed-up.  The timed operations ran before that, and what they
        # took longer is what fresh workers spend importing.
        pooled_s, _ = spans.timed(
            "core.procpool.pooled", lambda: self.run(probe.inputs, probe.scratch()), repeat=3)
        serial_s, _ = spans.timed(
            "core.procpool.serial",
            lambda: self.run(probe.inputs, probe.scratch(), workers=1), repeat=3)
        tasks = [()] * self.sizes["dispatch_tasks"]
        dispatch_s, results = spans.timed(
            "core.procpool.dispatch",
            lambda: run_tasks(_noop, tasks, workers=self.workers), repeat=3)
        return {
            "core.procpool.speedup": serial_s / pooled_s,
            "core.procpool.cold_start_s": probe.untraced_wall_s - pooled_s,
            "core.procpool.workers": self.workers,
            "core.procpool.dispatch_ms_per_task": dispatch_s / len(tasks) * 1e3,
            "core.procpool.failed_tasks":
                sum(not r.ok for r in results) + probe.output["report"].failed,
        }


WORKLOADS = {
    w.name: w
    for w in (NbodyCompute, RanksComm, SerialTree, PipelineE2E, CampaignIO, EnsemblePool)
}
