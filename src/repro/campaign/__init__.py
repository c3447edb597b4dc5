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

from .._namespace import namespace

__all__, __getattr__, __dir__ = namespace(__name__, {
    ".fingerprint": (
        "canonical_json", "canonical_json_bytes", "scenario_fingerprint", "scenario_fingerprint_hex",
    ),
    ".runner": ("CampaignReport", "run_campaign"),
    ".spec": (
        "ScenarioSpec", "CosmologySpec", "SupernovaSpec", "ClusterSpec", "BenchSpec",
        "PipelineSpec", "SPEC_KINDS", "spec_from_dict", "load_catalog", "save_catalog", "sweep",
    ),
    ".store": ("ResultStore", "SHARD_STATUSES"),
    ".workers": ("WORKERS_ENV", "resolve_workers", "execute_shard"),
})
