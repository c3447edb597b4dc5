"""Bench T5 — regenerate Table 5: the gravity micro-kernel survey.

Four parts: (1) run both kernel variants for real on this host (libm
sqrt versus Karp's add/multiply-only reciprocal square root), verify
they agree numerically, and report this machine's Mflop/s under the
paper's 38-flop accounting; (2) print the paper's eleven-processor
survey with the derived micro-architecture interpretation (effective
flops/cycle, implied sqrt+divide latency); (3) check the survey's
qualitative claims — Karp wins big exactly where hardware sqrt is slow;
(4) time the batched interaction-list evaluation against the
historical one-group-at-a-time tree walker at N=50k for every
registered kernel backend, asserting identical interaction counts.
Part (4) takes ~30 s and is host-timed, so it runs in full mode only
(no ``--smoke``, ``fleet --full``), after the timed payload: the record
is the micro-kernel survey of parts (1)-(3) in both modes.
"""

import time

import numpy as np

from repro.analysis import format_table
from repro.core import (
    available_backends,
    build_tree,
    compute_forces,
    compute_forces_reference,
    get_backend,
    interaction_kernel,
    measure_kernel_mflops,
)
from repro.machine import TABLE5_PROCESSORS

from _harness import cli, run_main


def _build():
    rng = np.random.default_rng(0)
    sources = rng.standard_normal((2048, 3))
    masses = rng.random(2048)
    a1, p1 = interaction_kernel(np.zeros(3), sources, masses, eps=0.01, method="libm")
    a2, p2 = interaction_kernel(np.zeros(3), sources, masses, eps=0.01, method="karp")
    agreement = float(np.abs(a1 - a2).max() / np.abs(a1).max())
    host = {m: measure_kernel_mflops(m, n_sources=2048, repeats=10) for m in ("libm", "karp")}
    return agreement, host


def _plummer(n, seed=0):
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    r = np.clip(1.0 / np.sqrt(u ** (-2.0 / 3.0) - 1.0), None, 10.0)
    d = rng.standard_normal((n, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return r[:, None] * d, np.full(n, 1.0 / n)


def _speedup_build(n=50_000, theta=0.6, eps=0.01, bucket=32, repeats=2):
    """Batched evaluation vs the pre-batching walker at production N."""
    pos, m = _plummer(n)
    tree = build_tree(pos, m, bucket_size=bucket)

    t0 = time.perf_counter()
    ref = compute_forces_reference(tree, eps=eps)
    t_ref = time.perf_counter() - t0

    out = {"n": n, "reference_seconds": t_ref, "backends": {}}
    for backend in available_backends():
        best, res = np.inf, None
        for _ in range(repeats):
            t0 = time.perf_counter()
            res = compute_forces(tree, eps=eps, backend=backend)
            best = min(best, time.perf_counter() - t0)
        assert res.counts == ref.counts, backend
        maxdiff = float(np.abs(res.accelerations - ref.accelerations).max())
        out["backends"][backend] = {
            "seconds": best, "speedup": t_ref / best, "maxdiff": maxdiff,
        }
        # A pooled backend's idle workers would block the exit of the
        # fleet worker this study runs in.
        close = getattr(get_backend(backend), "close", None)
        if close is not None:
            close()
    return out


def report(result, study=None) -> str:
    agreement, host = result
    rows = [
        [p.name, p.measured_libm_mflops, p.measured_karp_mflops,
         p.karp_speedup, p.effective_flops_per_cycle, p.implied_sqrtdiv_cycles]
        for p in TABLE5_PROCESSORS
    ]
    rows.append(["THIS HOST (numpy)", host["libm"].mflops, host["karp"].mflops,
                 host["karp"].mflops / host["libm"].mflops, "", ""])
    lines = [
        format_table(
            ["processor", "libm", "Karp", "Karp/libm", "eff flops/cyc", "sqrt+div cyc"],
            rows,
            "Table 5: gravitational micro-kernel Mflop/s (paper survey + this host)",
        ),
        f"libm/Karp numerical agreement: {agreement:.2e} relative",
    ]
    if study is not None:
        lines += ["", format_table(
            ["backend", "walker s", "batched s", "speedup", "max |da|"],
            [[b, study["reference_seconds"], s["seconds"], s["speedup"], s["maxdiff"]]
             for b, s in sorted(study["backends"].items())],
            f"Batched interaction-list evaluation vs per-group walker, N={study['n']}",
        )]
    return "\n".join(lines)


def check(result, study=None) -> None:
    agreement, host = result
    assert agreement < 1e-10
    assert host["libm"].mflops > 0 and host["karp"].mflops > 0
    # Qualitative claims of the survey:
    by_name = {p.name: p for p in TABLE5_PROCESSORS}
    assert by_name["533-MHz Alpha EV56"].karp_speedup > 3.0
    assert by_name["2530-MHz Intel P4 (icc)"].measured_libm_mflops > 1.4 * by_name[
        "2530-MHz Intel P4"].measured_libm_mflops
    if study is not None:
        for b, s in study["backends"].items():
            assert s["maxdiff"] < 1e-10, b
        assert study["backends"]["numpy"]["speedup"] > 3.0


#: The recorded workload (micro-kernel timings) is CI-cheap and the
#: same in both modes.
FLEET = {"tags": ("table", "kernel"), "smoke": "full"}


def main(smoke: bool = False) -> dict:
    # Full mode adds the batched-vs-walker study: host-timed and ~30 s,
    # so it stays out of the smoke fleet, and outside the timed payload,
    # so the record is the same survey in both modes.
    study = None if smoke else _speedup_build()
    return run_main(
        "table5_gravity_kernel", _build,
        check=lambda r: check(r, study), report=lambda r: report(r, study),
        params={"n_sources": 2048, "repeats": 10},
        counters=lambda r: {
            "agreement": r[0],
            "libm_mflops": r[1]["libm"].mflops,
            "karp_mflops": r[1]["karp"].mflops,
        },
    )


if __name__ == "__main__":
    cli(main, __doc__)
