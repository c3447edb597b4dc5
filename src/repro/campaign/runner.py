"""The campaign runner: shard, dedupe, execute, ledger, finalize.

One call — :func:`run_campaign` — is the batch front door the ROADMAP
names: a request is a scenario spec, a campaign is a catalog of them,
and hot scenarios are cache hits.  The pipeline:

1. **Fingerprint** every catalog entry
   (:func:`repro.campaign.fingerprint.scenario_fingerprint_hex`): a
   spec object computes its fingerprint once and keeps it, so a rerun
   of the same catalog objects encodes none of them again.  Duplicate
   specs collapse to one shard (*dedupe hits*).
2. **Reuse** everything already known: finalized results in the store
   (*cache hits*, cross-campaign) and the crash ledger of a
   partially-run campaign (*resume hits*, intra-campaign).
3. **Execute** the remaining unique shards — serially or on an
   OS-process pool (:mod:`repro.campaign.workers`).
4. **Ledger** every completion: one appended, flushed line of
   ``ledger.jsonl`` (:meth:`repro.campaign.store.ResultStore.append_ledger`),
   the very line ``results.jsonl`` will carry: the record keeps it.
   The campaign holds one handle, opened at its first append and
   closed however the shard loop ends.  A coordinator killed
   mid-line leaves an unterminated tail that resume ignores and the
   next campaign's first append cuts off; every terminated line whose
   fingerprint still names its spec is never recomputed.
5. **Finalize** the store
   (:meth:`repro.campaign.store.ResultStore.finalize`): canonical
   ``results.jsonl`` in catalog order, from the lines the records
   carry, never encoded again (bit-identical across
   serial/pooled/resumed runs) — at which point the ledger is removed —
   then operational ``shards.jsonl`` and the sqlite query index.  Each
   file is replaced only if its bytes differ and the index rebuilt only
   if one was (or it is stale), so a rerun of a finished campaign
   writes nothing.

Dedupe/cache/resume/compute tallies go into the returned
:class:`CampaignReport`.  Under :func:`repro.obs.wallclock.profile`
the steps are wall spans: ``campaign.fingerprint``, one
``campaign.compute`` per wait for the next finished shard (the shard's
own run, when serial), ``campaign.store`` around the store reads and
each ledger append, and ``campaign.finalize``.  They are opened here
and never inside :func:`~repro.campaign.workers.run_shards`, since a
span may not be held open across a generator's ``yield``.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Iterable, Mapping

from ..obs import wallclock
from .fingerprint import scenario_fingerprint_hex
from .spec import ScenarioSpec, as_spec
from .store import Record, ResultStore
from .workers import resolve_workers, run_shards

__all__ = ["CampaignReport", "run_campaign"]


@dataclass
class CampaignReport:
    """What one :func:`run_campaign` call did, in numbers."""

    root: str
    total_shards: int = 0
    unique: int = 0
    computed: int = 0
    dedupe_hits: int = 0
    cache_hits: int = 0
    resume_hits: int = 0
    failed: int = 0
    seconds: float = 0.0
    workers: int = 1
    computed_fingerprints: list[str] = field(default_factory=list)
    errors: dict[str, str] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        """Fraction of catalog entries served without computing (0 for none)."""
        hits = self.dedupe_hits + self.cache_hits + self.resume_hits
        return hits / max(self.total_shards, 1)

    def to_dict(self) -> dict:
        """Every field but ``computed_fingerprints``, plus ``hit_rate``."""
        d = asdict(self)
        del d["computed_fingerprints"]
        return {**d, "hit_rate": self.hit_rate}


def run_campaign(
    catalog: Iterable[ScenarioSpec | Mapping],
    store_dir: str,
    *,
    workers: int | None = None,
    throttle: float = 0.0,
) -> CampaignReport:
    """Run (or resume) a campaign over ``catalog`` into ``store_dir``.

    ``workers`` follows :func:`repro.campaign.workers.resolve_workers`
    (kwarg, then ``REPRO_CAMPAIGN_WORKERS``, then serial).  Returns a
    :class:`CampaignReport`; a dying worker is a ``failed`` shard in
    it, never an exception.  If the coordinator itself is killed,
    rerunning the same call resumes from ``ledger.jsonl``.
    """
    t_wall = time.perf_counter()
    n_workers = resolve_workers(workers)
    specs = [as_spec(s) for s in catalog]
    with wallclock.span("campaign.fingerprint", cat="campaign"):
        fps = [scenario_fingerprint_hex(s) for s in specs]

    store = ResultStore(store_dir)

    report = CampaignReport(root=store_dir, total_shards=len(specs), workers=n_workers)

    # Unique shards in catalog-first-occurrence order; later duplicates
    # are dedupe hits against the first.
    order: list[str] = []
    spec_by_fp: dict[str, ScenarioSpec] = {}
    for fp, spec in zip(fps, specs):
        if fp in spec_by_fp:
            report.dedupe_hits += 1
        else:
            order.append(fp)
            spec_by_fp[fp] = spec
    report.unique = len(order)

    # Known results: finalized store first, then the crash ledger of a
    # partially-run campaign.
    with wallclock.span("campaign.store", cat="campaign"):
        cached = store.load_results()
        ledger = store.load_ledger()
    known: dict[str, dict] = {}
    status: dict[str, str] = {}
    for fp in order:
        if fp in cached:
            known[fp] = cached[fp]
            status[fp] = "cached"
            report.cache_hits += 1
        elif fp in ledger:
            known[fp] = ledger[fp]
            status[fp] = "resumed"
            report.resume_hits += 1

    pending = [(fp, spec_by_fp[fp].to_dict()) for fp in order if fp not in known]
    seconds_by_fp: dict[str, float] = {}

    shards = run_shards(pending, workers=n_workers, throttle=throttle)
    with store.appending():  # one ledger handle, opened by the first shard
        while True:
            with wallclock.span("campaign.compute", cat="campaign"):
                done = next(shards, None)
            if done is None:
                break
            fp, record = done
            seconds_by_fp[fp] = float(record.pop("seconds", 0.0))
            record = Record(record, fingerprint=fp)
            # One flushed line: this shard survives any crash from here
            # on, and the record carries that line to ``results.jsonl``.
            with wallclock.span("campaign.store", cat="campaign"):
                store.append_ledger(record)
            if "error" in record:
                status[fp] = "failed"
                report.failed += 1
                report.errors[fp] = record["error"]
                continue
            known[fp] = record
            status[fp] = "computed"
            report.computed += 1
            report.computed_fingerprints.append(fp)

    rows = []
    seen: set[str] = set()
    for index, fp in enumerate(fps):
        row = {
            "index": index,
            "fingerprint": fp,
            "kind": specs[index].kind,
            "status": "dedupe" if fp in seen else status[fp],
            "seconds": seconds_by_fp.get(fp, 0.0) if fp not in seen else 0.0,
        }
        if fp not in seen and fp in report.errors:
            row["error"] = report.errors[fp]
        rows.append(row)
        seen.add(fp)
    # Finalize: canonical results in catalog order (which retires the
    # ledger), the operational shard rows, and the query index; a file
    # that already holds its bytes is left alone.
    with wallclock.span("campaign.finalize", cat="campaign"):
        store.finalize([known[fp] for fp in order if fp in known], rows)
    report.seconds = time.perf_counter() - t_wall
    return report
