"""Bench campaign — scenario-catalog engine throughput and dedupe.

Runs a mixed catalog (cluster checkpoint sweep plus, in the full
variant, a small cosmology box and an SPH collapse) through
:func:`repro.campaign.run_campaign` twice against the same store: the
first pass computes every unique shard, the second must be pure cache
hits.  The record's counters report the dedupe and cache hit rates the
fleet gate tracks, and the optional ``shards`` field carries the
per-shard fingerprint/status/kind/seconds breakdown from the
operational store — the one bench exercising the schema's array
sub-record.

``--smoke`` restricts the catalog to closed-form cluster scenarios so
the CI fleet finishes it in well under a second.
"""

import tempfile

from repro.campaign import (
    ClusterSpec,
    CosmologySpec,
    ResultStore,
    SupernovaSpec,
    run_campaign,
    sweep,
)

from _harness import Bench, shard_breakdown


def catalog(smoke: bool) -> list:
    specs = [
        *sweep(ClusterSpec(work_hours=24.0), n_nodes=[64, 128, 294, 512]),
        ClusterSpec(work_hours=24.0, n_nodes=294),  # duplicate -> dedupe hit
    ]
    if not smoke:
        specs += [
            CosmologySpec(n_side=4, a_final=0.12),
            SupernovaSpec(n_particles=40, n_steps=1),
        ]
    return specs


def _run_twice(smoke: bool) -> dict:
    specs = catalog(smoke)
    with tempfile.TemporaryDirectory() as root:
        first = run_campaign(specs, root, workers=1)
        second = run_campaign(specs, root, workers=1)
        shards = shard_breakdown(ResultStore(root).load_shards())
    return {"first": first, "second": second, "shards": shards, "smoke": smoke}


def check(out) -> None:
    first, second = out["first"], out["second"]
    assert first.failed + second.failed == 0
    assert first.dedupe_hits > 0         # the duplicated spec ran once
    assert second.hit_rate == 1.0        # the second pass computed nothing


#: Smoke drops the cosmology/supernova specs from the catalog.
BENCH = Bench(
    ("campaign",), _run_twice, check,
    sizes={"smoke": False}, smoke={"smoke": True},
    params=lambda out: {"n_specs": out["first"].total_shards, "workers": 1},
    counters=lambda out: {
        "shards": out["first"].total_shards,
        "unique": out["first"].unique,
        "computed": out["first"].computed,
        "dedupe_hits": out["first"].dedupe_hits,
        "dedupe_hit_rate": out["first"].dedupe_hits / out["first"].total_shards,
        "cache_hits": out["second"].cache_hits,
        "rerun_hit_rate": out["second"].hit_rate,
        "failed": out["first"].failed + out["second"].failed,
    },
    shards=lambda out: out["shards"],
    notes=lambda out: "smoke catalog (closed-form cluster only)" if out["smoke"]
    else "full catalog (cluster + cosmology + supernova)",
)


if __name__ == "__main__":
    BENCH.cli(__file__, __doc__)
