"""repro.campaign — batch simulation-as-a-service.

The front door for sweeps: a *scenario spec* (cosmology realization,
supernova progenitor, cluster configuration) is one request, a JSONL
*catalog* of specs is one campaign, and :func:`run_campaign` shards
the catalog across an OS-process worker pool, dedupes identical work
by content-addressed fingerprint, resumes partial campaigns from an
append-only crash ledger (one ``ledger.jsonl`` line per finished
shard, gone again at finalization), and finalizes a queryable
JSONL + sqlite result store.

Quickstart::

    from repro.campaign import ClusterSpec, run_campaign, sweep
    report = run_campaign(sweep(ClusterSpec(), n_nodes=[64, 128, 294]),
                          "campaign_out", workers=4)
    print(report.to_dict())

Or from the shell: ``python -m repro.campaign --help``.
"""

from .fingerprint import (
    canonical_json,
    canonical_json_bytes,
    scenario_fingerprint,
    scenario_fingerprint_hex,
)
from .runner import CampaignReport, run_campaign
from .spec import (
    SPEC_KINDS,
    BenchSpec,
    ClusterSpec,
    CosmologySpec,
    PipelineSpec,
    ScenarioSpec,
    SupernovaSpec,
    load_catalog,
    save_catalog,
    spec_from_dict,
    sweep,
)
from .store import SHARD_STATUSES, ResultStore
from .workers import WORKERS_ENV, execute_shard, resolve_workers

__all__ = [
    # specs / catalogs
    "ScenarioSpec",
    "CosmologySpec",
    "SupernovaSpec",
    "ClusterSpec",
    "BenchSpec",
    "PipelineSpec",
    "SPEC_KINDS",
    "spec_from_dict",
    "load_catalog",
    "save_catalog",
    "sweep",
    # fingerprints
    "canonical_json",
    "canonical_json_bytes",
    "scenario_fingerprint",
    "scenario_fingerprint_hex",
    # store
    "ResultStore",
    "SHARD_STATUSES",
    # execution
    "CampaignReport",
    "run_campaign",
    "WORKERS_ENV",
    "resolve_workers",
    "execute_shard",
]
