"""OS-process execution of campaign shards.

SimMPI simulates parallelism inside one interpreter; the campaign
layer is where this repo uses *real* cores.  Shards are independent by
construction (a spec is pure data, a result is pure content), so the
pool is :class:`repro.core.procpool.ProcPool` — no shared state,
results travel back by value, and the coordinator remains the only
process that ever writes the store or the crash ledger.  A worker
therefore cannot corrupt a campaign: a task exception becomes a
``failed`` shard record inside :func:`execute_shard`, and a *dying*
worker (SIGKILL, OOM) is retried once in a rebuilt pool before it too
becomes an error record — never an exception out of the generator.

Who imports what, when: the ``repro.campaign`` and ``repro.pipeline``
packages import none of the physics they drive (no ``repro.cosmology``,
no ``repro.sph``), so a catalog tool, a cached rerun and a run of
closed-form shards pay for none of it, and a serial run imports it when
its first shard does.  The campaign layer itself loads no numpy either:
no numpy is loaded until a shard runs, so a cached rerun and a
``status`` run without it.  When :func:`run_shards` is about to fork a
pool, and only then, the coordinator imports what the pending shards'
kinds declare (:meth:`ScenarioSpec.preload
<repro.campaign.spec.ScenarioSpec.preload>`) once, and every worker
inherits it; left to themselves, fresh workers would each import the
same modules again.

Worker count resolution, in priority order: explicit ``workers=``
kwarg (an integer, never a ``bool``), the ``REPRO_CAMPAIGN_WORKERS``
environment variable, serial.
``workers <= 1`` means run in-process with no executor at all
(:class:`ProcPool`'s own inline path) — the serial fallback is the
reference implementation the differential suite compares pools
against.
"""

from __future__ import annotations

import contextlib
import os
import time
from typing import Iterable, Iterator, Mapping

from ..core.procpool import ProcPool, resolve_pool_workers
from .spec import SPEC_KINDS, spec_from_dict

__all__ = ["WORKERS_ENV", "resolve_workers", "execute_shard", "run_shards"]

WORKERS_ENV = "REPRO_CAMPAIGN_WORKERS"


def resolve_workers(workers: int | None = None) -> int:
    """Effective worker count (>= 1); see module docstring for order.
    ``workers`` follows :func:`~repro.core.procpool.resolve_pool_workers`'
    integer rule."""
    if workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        try:
            workers = int(env) if env else 1
        except ValueError:
            raise ValueError(f"{WORKERS_ENV} must be an integer, got {env!r}") from None
    return resolve_pool_workers(workers)


def execute_shard(spec_dict: Mapping, throttle: float = 0.0) -> dict:
    """Run one shard; the unit of work a pool worker executes.

    Takes the spec in dict form (cheap to pickle, and identical to
    what the catalog file holds) and returns a self-describing record.
    Failures are *data*, not exceptions: a deterministic physics error
    must not kill the pool, it must become a ``failed`` shard row.
    ``throttle`` sleeps before computing — a pacing knob for crash
    drills and load tests; it cannot affect the result content.
    """
    if throttle > 0:
        time.sleep(throttle)
    t0 = time.perf_counter()
    try:
        spec = spec_from_dict(spec_dict)
        result = spec.run()
    except Exception as exc:  # noqa: BLE001 — error becomes shard data
        return {
            "kind": str(spec_dict.get("kind", "?")),
            "spec": dict(spec_dict),
            "error": f"{type(exc).__name__}: {exc}",
            "seconds": time.perf_counter() - t0,
        }
    return {
        "kind": spec.kind,
        "spec": spec.to_dict(),
        "result": result,
        "seconds": time.perf_counter() - t0,
    }


def run_shards(
    items: Iterable[tuple[str, Mapping]],
    *,
    workers: int = 1,
    throttle: float = 0.0,
) -> Iterator[tuple[str, dict]]:
    """Execute ``(fingerprint_hex, spec_dict)`` shards, yielding each
    ``(fingerprint_hex, record)`` as it completes.

    One delegation to :meth:`ProcPool.imap_unordered`, which runs
    inline in submission order for one worker (or one shard) and yields
    in completion order otherwise.  Consumers must not rely on
    ordering — the runner ledgers per completion and canonicalizes
    order at finalization, which is exactly what makes the two modes
    bit-identical at the store level.

    When the pool will fork, the coordinator first imports what the
    shards' kinds declare, so no worker imports it again; a kind that
    cannot be imported here fails in its worker, as shard data.

    Pool-level failures (a worker killed hard enough to exhaust the
    retry) surface as :func:`execute_shard`-shaped error records, so a
    chaos event degrades to one failed shard row instead of aborting
    the campaign.
    """
    items = list(items)
    with ProcPool(workers=min(workers, len(items))) as pool:
        if pool.forks:
            for kind in sorted({str(spec_dict.get("kind")) for _, spec_dict in items}):
                # What cannot be imported here cannot be in the worker
                # either: it fails there, as that shard's ``failed`` row.
                with contextlib.suppress(Exception):
                    SPEC_KINDS[kind].preload()
        args_list = [(spec_dict, throttle) for _, spec_dict in items]
        for result in pool.imap_unordered(execute_shard, args_list):
            fp, spec_dict = items[result.index]
            if result.ok:
                yield fp, result.value
            else:
                yield fp, {
                    "kind": str(spec_dict.get("kind", "?")),
                    "spec": dict(spec_dict),
                    "error": result.error,
                    "seconds": 0.0,
                }
