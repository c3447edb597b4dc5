"""Measurement: set-up, the closed timing loop, the traced run, the result.

One caller, closed loop: the next operation starts when the previous one
has returned and been checked.  End-to-end metrics come only from runs
with tracing off; the traced run wraps the same operation in spans and a
timing kernel backend and then probes each layer through its public
functions.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

from . import REPO_ROOT, WORK_ROOT, load_contract
from .layers import KERNEL_METHODS, Spans, TimingBackend
from .workloads import SIZES, SMOKE_SIZES, WORKLOADS, Probe, Tally

#: Set-ups timed per end-to-end run: this process and three fresh ones.
#: Their first decile is reported, like that of the timed operations:
#: between two sets of ten runs the quickest of four agreed within 9%
#: on every workload, their median only within 22%.
SETUP_SAMPLES = 4
#: What one calibration pass takes on the reference host: this 2-core VM
#: in a quiet spell.  Reported times are scaled by it over what the pass
#: takes beside the timed operations, so they read as seconds on a quiet
#: reference host whatever a neighbour is doing to this one.
CALIBRATION_REFERENCE_S = 0.0160
#: Passes per child of a parallel calibration: long enough that forking
#: is a small part of it.
PARALLEL_PASSES = 3
#: What a parallel calibration in two processes takes on the reference
#: host: more than three passes, because the two share its memory.
PARALLEL_REFERENCE_S = 0.0560
#: Fewest timed operations in a run, however short ``--seconds`` is.
MIN_OPS = 3
#: A set-up child that takes longer than this is treated as hung.
CHILD_TIMEOUT_S = 170


class Scratch:
    """Fresh directories under ``perfbench/.work``, all removed on exit."""

    def __enter__(self) -> "Scratch":
        os.makedirs(WORK_ROOT, exist_ok=True)
        self.root = tempfile.mkdtemp(prefix=f"{os.getpid()}-", dir=WORK_ROOT)
        return self

    def new(self) -> str:
        return tempfile.mkdtemp(dir=self.root)

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)  # only when no concurrent run is using it
        except OSError:
            pass


def make_workload(name: str, smoke: bool):
    return WORKLOADS[name]((SMOKE_SIZES if smoke else SIZES)[name])


def cpu_seconds() -> float:
    """User + system time of this process and its reaped children."""
    return sum(usage.ru_utime + usage.ru_stime
               for usage in map(resource.getrusage,
                                (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)))


def quiet_time(samples: list) -> float:
    """First decile of timed operations: the time on a quiet host.

    Contention on a shared host only ever adds time, and it comes in
    spells that outlast several operations, so a run's median sits
    inside a spell as often as not.  The first decile repeats from run
    to run several times more closely, and one freak sample cannot set
    it as it would the minimum.
    """
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[0]


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any reaped child."""
    kb = max(resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kb / 1024.0


class Calibration:
    """Fixed work of the benchmark's own, timed beside the operations.

    One pass is single-threaded work of the kinds the workloads are made
    of: interpreter bytecode; churn of small Python objects (JSON both
    ways, a keyed sort, a dict); array arithmetic streamed through
    memory; a sort.  The arrays are preallocated, so a pass takes the
    same time whatever state a workload has left the allocator in.
    Measured beside the workloads, each part slows down with them when
    the host does, the object and memory parts the most, which is why
    they carry the weight.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.stream = rng.random(1_000_000)  # 8 MB: beyond the core's own caches
        self.buffer = np.empty_like(self.stream)
        self.small = self.stream[:50_000]
        self.small_buffer = np.empty_like(self.small)
        self.records = {
            f"k{i}": {"a": [float(j) for j in range(8)], "b": {"c": -i, "d": str(i)}}
            for i in range(800)
        }

    def one_pass(self) -> None:
        acc = 0
        for i in range(30_000):
            acc += i * i % 7
        for _ in range(2):
            decoded = json.loads(json.dumps(self.records))
            pairs = [(key, value["b"]["c"]) for key, value in decoded.items()]
            pairs.sort(key=lambda pair: pair[1])
            dict(pairs)
        for _ in range(4):
            np.multiply(self.stream, self.stream, out=self.buffer)
            np.add(self.buffer, 1.0, out=self.buffer)
        np.sqrt(self.small, out=self.small_buffer)
        self.small_buffer.sort()

    def seconds(self, processes: int = 1) -> float:
        """What a pass takes here, now.

        A workload that keeps several processes busy is calibrated by as
        many forked children passing at once, timed until the last has
        ended: when one core of a shared host is taken, both slow down
        together.
        """
        t0 = time.perf_counter()
        if processes == 1:
            self.one_pass()
        else:
            children = []
            for _ in range(processes):
                pid = os.fork()
                if pid == 0:
                    try:
                        for _ in range(PARALLEL_PASSES):
                            self.one_pass()
                    finally:
                        os._exit(0)
                children.append(pid)
            for pid in children:
                os.waitpid(pid, 0)
        return time.perf_counter() - t0


def set_up(workload, seed: int, scratch: Scratch, tally: Tally):
    """Generate the inputs and run the discarded warm-up operation."""
    inputs = workload.inputs(seed)
    workdir = scratch.new()
    output = workload.run(inputs, workdir)
    signature = workload.check(tally, inputs, output)
    shutil.rmtree(workdir, ignore_errors=True)
    return inputs, output, signature


def run_setup_only(name: str, seed: int, smoke: bool, t0: float) -> int:
    """Child mode: one set-up, timed from this process's first line."""
    with Scratch() as scratch:
        set_up(make_workload(name, smoke), seed, scratch, Tally())
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def _setup_in_child(name: str, seed: int, smoke: bool) -> float:
    cmd = [sys.executable, "-m", "perfbench", "--workload", name,
           "--seed", str(seed), "--setup-only"]
    if smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, cwd=REPO_ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _slice_over(walls, spent, allowance, repeats, last) -> bool:
    """Whether the timed loop has used the seconds it is allowed so far."""
    if repeats is not None:
        return len(walls) >= repeats
    if last and len(walls) < MIN_OPS:
        return False
    return spent + statistics.median(walls or [0.0]) > allowance


def _timed_op(workload, inputs, scratch, tally, signature, backend=None):
    """One operation: (wall s, cpu s, work units, output); checked after timing."""
    workdir = scratch.new()
    c0, t0 = cpu_seconds(), time.perf_counter()
    output = workload.run(inputs, workdir, backend=backend)
    wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
    tally.check(workload.check(tally, inputs, output) == signature,
                "output differs from the warm-up run's")
    work = workload.work(inputs, output)
    shutil.rmtree(workdir, ignore_errors=True)
    return wall, cpu, work, output


def measure_end_to_end(workload, seed, seconds, repeats, smoke, t0) -> dict:
    tally = Tally()
    calibration = Calibration()
    with Scratch() as scratch:
        inputs, warm_up, signature = set_up(workload, seed, scratch, tally)
        setups = [time.perf_counter() - t0]

        # The other set-ups run in fresh processes between slices of the
        # timed loop.  That spreads the timed operations over the whole
        # run, so a contention spell that outlasts one slice need not
        # outlast them all.  ``spent`` counts the loop's own seconds only.
        walls, cpus, works, calibrations = [], [], [], []
        spent = 0.0
        for part in range(1, SETUP_SAMPLES + 1):
            if part > 1:
                setups.append(_setup_in_child(workload.name, seed, smoke))
            allowance = seconds * part / SETUP_SAMPLES
            while not _slice_over(walls, spent, allowance, repeats, part == SETUP_SAMPLES):
                t_op = time.perf_counter()
                calibrations.append(calibration.seconds(workload.processes))
                wall, cpu, work, _ = _timed_op(workload, inputs, scratch, tally, signature)
                walls.append(wall)
                cpus.append(cpu)
                works.append(work)
                spent += time.perf_counter() - t_op
        workload.check_once(tally, inputs, warm_up, signature, scratch.new)

    reference = CALIBRATION_REFERENCE_S if workload.processes == 1 else PARALLEL_REFERENCE_S
    scale = reference / quiet_time(calibrations)
    walls, cpus, setups = ([scale * s for s in seconds] for seconds in (walls, cpus, setups))
    samples = {
        "wall_s": walls,
        "work_per_s": [w / s for w, s in zip(works, walls)],
        "cpu_s": cpus,
        "setup_s": setups,
    }
    values = {
        "wall_s": quiet_time(walls),
        "work_per_s": statistics.median(works) / quiet_time(walls),
        "cpu_s": quiet_time(cpus),
        "setup_s": quiet_time(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    raw = {"host_scale": scale, "wall_s": values["wall_s"] / scale,
           "calibration_s": calibrations}
    return {"values": values, "samples": samples, "tally": tally, "spans": [], "raw": raw}


def measure_layers(workload, seed, seconds, repeats) -> dict:
    tally = Tally()
    spans = Spans()
    proxy = TimingBackend(spans)
    calibration = Calibration()
    calib = quiet_time([calibration.seconds() for _ in range(10)])
    with Scratch() as scratch:
        inputs, warm_up, signature = set_up(workload, seed, scratch, tally)

        # Untraced and traced operations alternate, so both see the same
        # host; half the budget, the layer probes take the rest.
        plain, traced, kernel = [], [], []
        t_loop = time.perf_counter()
        while True:
            plain.append(_timed_op(workload, inputs, scratch, tally, signature)[0])
            kernel_before = proxy.kernel_s
            with spans.span(f"{workload.name}.run"):
                wall, _, _, output = _timed_op(
                    workload, inputs, scratch, tally, signature, backend=proxy)
            traced.append(wall)
            kernel.append(proxy.kernel_s - kernel_before)
            if repeats is not None:
                if len(traced) >= repeats:
                    break
            elif time.perf_counter() - t_loop + plain[-1] + wall > seconds / 2:
                break

        # After the timed operations, as in the end-to-end run: a check may
        # import or cache what a timed operation would otherwise pay for.
        workload.check_once(tally, inputs, warm_up, signature, scratch.new)
        del warm_up

        # Layer times are medians throughout, so that differences and
        # shares of them compare like with like.
        n = len(traced)
        traced_wall, plain_wall = statistics.median(traced), statistics.median(plain)
        kernel_s = statistics.median(kernel)
        values = {
            "host.calib_s": calib,
            "host.nproc": os.cpu_count() or 1,
            "obs.untraced_wall_s": plain_wall,
            "obs.traced_wall_s": traced_wall,
            "obs.trace_overhead_share": (traced_wall - plain_wall) / plain_wall,
            "core.backend.kernel_s": kernel_s,
            "core.backend.kernel_share": kernel_s / traced_wall,
            "core.backend.calls": proxy.total_calls / n,
            "core.backend.pairs": proxy.pairs / n,
            "core.backend.pairs_per_s": proxy.pairs / proxy.kernel_s if proxy.pairs else 0.0,
        }
        for method in KERNEL_METHODS:
            values[f"core.backend.{method}_s"] = proxy.seconds[method] / n
        with spans.span(f"{workload.name}.layers"):
            values.update(workload.layers(Probe(
                inputs=inputs, output=output, spans=spans, traced_wall_s=traced_wall,
                untraced_wall_s=plain_wall, kernel_s=kernel_s, scratch=scratch.new)))

    t_base = spans.records[0]["start"]
    for record in spans.records:
        record["start"] -= t_base
        record["end"] -= t_base
    samples = {"obs.untraced_wall_s": plain, "obs.traced_wall_s": traced}
    return {"values": values, "samples": samples, "tally": tally, "spans": spans.records,
            "raw": {}}


def run_workload(name, seed, seconds, repeats, trace, smoke, t0) -> dict:
    """Measure one workload in this process; the full detail record."""
    contract = load_contract()
    workload = make_workload(name, smoke)
    if trace:
        measured = measure_layers(workload, seed, seconds, repeats)
        declared = contract["per_layer"]
        # A layer metric reads 0 on a workload that never enters the layer.
        values = {d["name"]: 0.0 for d in declared}
    else:
        measured = measure_end_to_end(workload, seed, seconds, repeats, smoke, t0)
        declared = contract["end_to_end"]
        values = {}
    undeclared = set(measured["values"]) - {d["name"] for d in declared}
    if undeclared:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {sorted(undeclared)}")
    values.update(measured["values"])
    tally = measured["tally"]
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "smoke": smoke,
        "sizes": workload.sizes,
        "work_unit": workload.work_unit,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "metrics": {d["name"]: {"value": float(values[d["name"]]), "unit": d["unit"]}
                    for d in declared},
        "measured": sorted(measured["values"]),
        "samples": measured["samples"],
        "raw": measured["raw"],
        "spans": measured["spans"],
    }


def result_line(detail: dict) -> str:
    """The contract's last line of standard output."""
    return json.dumps({k: detail[k] for k in ("correct", "attempted", "failed", "metrics")})


def print_metrics(detail: dict, stream=sys.stdout) -> None:
    """Every metric by name with its unit; min, max and count where sampled."""
    kind = "per-layer" if detail["trace"] else "end-to-end"
    print(f"== {detail['workload']} ({kind}, seed {detail['seed']}, sizes {detail['sizes']}, "
          f"work in {detail['work_unit']})", file=stream)
    for name, metric in detail["metrics"].items():
        if detail["trace"] and name not in detail["measured"]:
            continue
        line = f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}"
        sample = detail["samples"].get(name)
        if sample and len(sample) > 1:
            line += f"   (min {min(sample):.6g}, max {max(sample):.6g}, n={len(sample)})"
        print(line, file=stream)
    if raw := detail["raw"]:
        print(f"  (times scaled by {raw['host_scale']:.4f} to the reference host; "
              f"unscaled wall_s {raw['wall_s']:.6g} s)", file=stream)
    for failure in detail["failures"]:
        print(f"  FAILED: {failure}", file=stream)
