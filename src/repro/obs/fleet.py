"""The benchmark fleet: every ``benchmarks/bench_*.py`` as one campaign.

The repo's benches each know how to measure one figure or table and
emit one schema-validated record: each ``bench_<stem>.py`` declares
``BENCH = Bench(...)`` (``benchmarks/_harness.py``).  This module is
the layer above: a **registry** that enumerates the whole suite and
refuses any file without a tagged ``Bench`` declaration, a **scenario
adapter** (:class:`repro.campaign.spec.BenchSpec` +
:func:`run_bench_scenario`) that turns one bench run into one campaign
shard, and a **fleet runner** (:func:`run_fleet`, surfaced as
``python -m repro.obs fleet``) that pushes the catalog through
:func:`repro.campaign.runner.run_campaign` — so the suite inherits
content-fingerprinted dedupe, cross-run caching, crash-safe resume,
and the OS-process worker pool without any bench knowing about them.

The product is ``fleet.jsonl``: one ledger line per catalog entry —
the bench's own record plus a ``fleet`` stamp (deterministic fleet id,
smoke/full mode, shard status, wall seconds, registry tags) — every
line valid against ``benchmarks/schema.json``.  Failed shards become
schema-valid rows too (status ``failed``, synthesized record carrying
the error), so a fleet ledger is always complete: one row per catalog
entry.

A bench run (``Bench.run``) only returns its record; the coordinator
is the one process that writes the ledger and, when given
``history=``, appends the freshly computed records to it.  Bench stdout
(each bench prints its report and record) is swallowed in the worker;
the coordinator owns all reporting.

The read side: :func:`load_fleet` for the ledger, :func:`format_suite`
for its text table, and :func:`repro.obs.history.compare_history` for
the multi-metric gate.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .history import load_history

__all__ = [
    "BENCH_ROOT_ENV",
    "FLEET_FILE",
    "BenchEntry",
    "FleetError",
    "FleetRun",
    "build_registry",
    "default_bench_dir",
    "fleet_id",
    "format_suite",
    "load_fleet",
    "run_bench_scenario",
    "run_fleet",
]

#: Overrides where the bench suite lives (tests point it at fixtures).
BENCH_ROOT_ENV = "REPRO_BENCH_ROOT"

#: Ledger filename written into the fleet output directory.
FLEET_FILE = "fleet.jsonl"

class FleetError(ValueError):
    """A bench suite or fleet-ledger contract violation."""


def default_bench_dir() -> str:
    """The ``benchmarks/`` directory (``REPRO_BENCH_ROOT`` overrides)."""
    env = os.environ.get(BENCH_ROOT_ENV, "").strip()
    if env:
        return env
    here = os.path.dirname(os.path.abspath(__file__))  # src/repro/obs
    root = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    return os.path.join(root, "benchmarks")


def _load_bench_module(bench_dir: str, stem: str):
    """Import ``bench_<stem>.py`` under a private module name.

    ``bench_dir`` goes on ``sys.path`` first because bench modules
    import ``_harness``, which lives next to them.  Loaded modules are
    cached in ``sys.modules`` so registry building and shard execution
    in the same process import each file once; a cached module counts
    only for the file it was loaded from, so a second ``bench_dir``
    holding the same stem gets its own file.
    """
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    name = f"_fleet_bench_{stem}"
    path = os.path.abspath(os.path.join(bench_dir, f"bench_{stem}.py"))
    cached = sys.modules.get(name)
    if cached is not None and cached.__file__ == path:
        return cached
    spec = importlib.util.spec_from_file_location(name, path)
    if spec is None or spec.loader is None:
        raise FleetError(f"cannot load bench module {path}")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    try:
        spec.loader.exec_module(mod)
    except BaseException:
        sys.modules.pop(name, None)
        raise
    return mod


def _harness(bench_dir: str):
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    import _harness  # noqa: PLC0415 — lives next to the benches

    return _harness


def _declaration(stem: str, mod, harness):
    """The ``BENCH`` of ``bench_<stem>.py``; a :class:`FleetError`
    naming the file if it is missing, not a ``Bench``, or untagged."""
    bench = getattr(mod, "BENCH", None)
    if bench is None:
        problem = "no BENCH = Bench(...) declaration"
    elif not isinstance(bench, harness.Bench):
        problem = f"BENCH is not a Bench (got {type(bench).__name__})"
    elif not bench.tags:
        problem = "BENCH declares no tags"
    else:
        return bench
    raise FleetError(f"bench_{stem}.py: {problem}")


@dataclass(frozen=True)
class BenchEntry:
    """One registered bench: module stem, file, and its declaration."""

    name: str  # module stem, e.g. "fig7_cosmology"
    path: str
    bench: object  # the module's _harness.Bench


def build_registry(bench_dir: str | None = None) -> dict[str, BenchEntry]:
    """Enumerate the suite; refuse files without a tagged ``Bench``.

    Every ``bench_*.py`` must declare ``BENCH = Bench(tags, build,
    check, ...)`` with at least one tag.  Any offender fails the
    *whole* registry with one error naming all of them — a fleet with
    silently missing benches would report green on partial coverage,
    which is worse than failing loudly.
    """
    bench_dir = bench_dir or default_bench_dir()
    if not os.path.isdir(bench_dir):
        raise FleetError(f"bench directory not found: {bench_dir}")
    stems = [f[len("bench_"):-len(".py")] for f in sorted(os.listdir(bench_dir))
             if f.startswith("bench_") and f.endswith(".py")]
    if not stems:
        raise FleetError(f"no bench_*.py found under {bench_dir}")
    harness = _harness(bench_dir)
    entries: dict[str, BenchEntry] = {}
    problems: list[str] = []
    for stem in stems:
        filename = f"bench_{stem}.py"
        try:
            mod = _load_bench_module(bench_dir, stem)
        except Exception as exc:  # noqa: BLE001 — collected, not fatal per-file
            problems.append(f"{filename}: import failed ({type(exc).__name__}: {exc})")
            continue
        try:
            bench = _declaration(stem, mod, harness)
        except FleetError as exc:
            problems.append(str(exc))
            continue
        entries[stem] = BenchEntry(stem, os.path.join(bench_dir, filename), bench)
    if problems:
        listing = "\n".join(f"  - {p}" for p in problems)
        raise FleetError(
            f"{len(problems)} bench(es) violate the fleet contract "
            f"(a tagged BENCH = Bench(...) declaration):\n{listing}"
        )
    return entries


def run_bench_scenario(params: Mapping) -> dict:
    """Campaign entry point for :class:`~repro.campaign.spec.BenchSpec`.

    Runs one bench's declaration (``BENCH.run``) in this (worker)
    process with stdout swallowed and returns the bench record itself
    as the shard result.
    """
    stem = str(params["bench"])
    bench_dir = default_bench_dir()
    bench = _declaration(stem, _load_bench_module(bench_dir, stem), _harness(bench_dir))
    with contextlib.redirect_stdout(io.StringIO()):
        return bench.run(stem, smoke=bool(params.get("smoke", True)))


def fleet_id(catalog: Iterable, smoke: bool) -> str:
    """Deterministic 32-hex id of a fleet: content of its catalog.

    Same catalog + same mode -> same id, across machines and runs —
    the fleet analogue of a scenario fingerprint.
    """
    from ..campaign.fingerprint import canonical_json
    from ..campaign.spec import as_spec

    h = hashlib.blake2b(digest_size=16)
    h.update(b"fleet/smoke" if smoke else b"fleet/full")
    for spec in catalog:
        h.update(canonical_json(as_spec(spec).to_dict()).encode())
        h.update(b"\n")
    return h.hexdigest()


@dataclass
class FleetRun:
    """What one :func:`run_fleet` call produced."""

    fleet_id: str
    mode: str  # "smoke" | "full"
    out_dir: str
    ledger_path: str
    rows: list[dict] = field(default_factory=list)
    campaign: "object | None" = None  # CampaignReport

    @property
    def status_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for row in self.rows:
            status = row["fleet"]["status"]
            counts[status] = counts.get(status, 0) + 1
        return counts

    @property
    def failed(self) -> list[dict]:
        return [r for r in self.rows if r["fleet"]["status"] == "failed"]

    @property
    def ok(self) -> bool:
        return not self.failed

    def to_dict(self) -> dict:
        d = {
            "fleet_id": self.fleet_id,
            "mode": self.mode,
            "out_dir": self.out_dir,
            "ledger_path": self.ledger_path,
            "benches": len(self.rows),
            "ok": self.ok,
            "status_counts": self.status_counts,
        }
        if self.campaign is not None:
            d["campaign"] = self.campaign.to_dict()
        return d


def run_fleet(
    benches: Sequence[str] | None = None,
    *,
    out_dir: str,
    smoke: bool = True,
    workers: int | None = None,
    bench_dir: str | None = None,
    throttle: float = 0.0,
    history: str | None = None,
) -> FleetRun:
    """Run the bench suite (or a subset) as one campaign.

    ``benches`` selects registry stems (default: every registered
    bench, sorted); unknown names fail fast.  ``out_dir`` receives the
    campaign store under ``campaign/`` — rerunning the same fleet into
    the same directory is all cache hits, and a fleet killed mid-run
    resumes from its committed shards — plus the ``fleet.jsonl``
    ledger.  ``history`` receives one appended line per *freshly
    computed* record, written only by this coordinator process.
    """
    from ..campaign.runner import run_campaign
    from ..campaign.spec import BenchSpec
    from ..campaign.store import ResultStore

    bench_dir = bench_dir or default_bench_dir()
    registry = build_registry(bench_dir)
    if benches is None:
        names = sorted(registry)
    else:
        unknown = sorted(set(benches) - set(registry))
        if unknown:
            raise FleetError(
                f"unknown bench(es) {unknown}; registered: {sorted(registry)}"
            )
        names = list(benches)

    catalog = [BenchSpec(bench=name, smoke=smoke) for name in names]
    mode = "smoke" if smoke else "full"
    fid = fleet_id(catalog, smoke)
    os.makedirs(out_dir, exist_ok=True)
    campaign_dir = os.path.join(out_dir, "campaign")

    # Shard execution resolves the suite via default_bench_dir(), both
    # in-process and in pool workers (which inherit the environment at
    # fork/spawn) — so an explicit bench_dir must ride the env var.
    saved_root = os.environ.get(BENCH_ROOT_ENV)
    os.environ[BENCH_ROOT_ENV] = bench_dir
    try:
        report = run_campaign(catalog, campaign_dir, workers=workers, throttle=throttle)
    finally:
        if saved_root is None:
            os.environ.pop(BENCH_ROOT_ENV, None)
        else:
            os.environ[BENCH_ROOT_ENV] = saved_root

    store = ResultStore(campaign_dir)
    results = store.load_results()
    shard_rows = store.load_shards()  # catalog order, one row per entry
    harness = _harness(bench_dir)
    schema = harness.load_schema()

    rows: list[dict] = []
    for name, shard in zip(names, shard_rows):
        entry = registry[name]
        fp = shard["fingerprint"]
        status = shard["status"]
        error = shard.get("error") or report.errors.get(fp, "")
        if fp in results:
            record = dict(results[fp]["result"])
        else:
            # Failed shard (or dedupe of one): synthesize a schema-valid
            # row so the ledger always covers the full catalog.
            record = harness.bench_record(
                name,
                params={"smoke": smoke},
                seconds=float(shard.get("seconds", 0.0)),
                notes=f"FAILED: {error}" if error else "FAILED: no result",
            )
        stamp = {
            "id": fid,
            "mode": mode,
            "bench": name,
            "status": status,
            "shard_seconds": float(shard.get("seconds", 0.0)),
            "tags": list(entry.bench.tags),
        }
        if error:
            stamp["error"] = str(error)
        record["fleet"] = stamp
        errors = harness.validate_record(record, schema)
        if errors:
            raise FleetError(
                f"fleet row for bench {name!r} violates schema.json: {errors}"
            )
        rows.append(record)

    ledger_path = os.path.join(out_dir, FLEET_FILE)
    harness.write_atomic(
        ledger_path, "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows),
    )

    # Single-writer history append: only freshly computed records join
    # the longitudinal baseline (cache/resume hits are old news, failed
    # rows would poison rolling medians with near-zero timings).
    if history:
        for row in rows:
            if row["fleet"]["status"] == "computed":
                harness.append_history(row, history)

    return FleetRun(
        fleet_id=fid, mode=mode, out_dir=out_dir, ledger_path=ledger_path,
        rows=rows, campaign=report,
    )


def load_fleet(path: str) -> list[dict]:
    """Read a ``fleet.jsonl`` ledger (rows in catalog order).

    Forgiving like :func:`repro.obs.history.load_history`, which reads
    it — blank or corrupt lines are skipped; rows without a ``fleet``
    stamp are not fleet rows and are skipped too.  Strict validation is
    the ``python -m repro.obs validate`` verb's job.
    """
    return [r for r in load_history(path) if isinstance(r.get("fleet"), dict)]


def format_suite(rows: Iterable[Mapping]) -> str:
    """The suite table of fleet ledger rows: per bench its status, tags,
    wall and virtual seconds, and the engine's blocked seconds (the
    ``wait.<cause>_s`` counters) with the cause that dominates them.
    The title line counts the benches, and the failed ones if any."""
    from ..analysis.tables import format_table

    rows = list(rows)
    table = []
    for row in rows:
        meta = row["fleet"]
        waits = {
            key[len("wait."):-len("_s")]: float(value)
            for key, value in row.get("counters", {}).items()
            if key.startswith("wait.") and key.endswith("_s")
        }
        blocked = sum(waits.values())
        virtual = float(row.get("virtual_seconds", 0.0))
        table.append([
            row.get("name", meta["bench"]),
            meta["status"],
            ",".join(meta.get("tags", ())),
            float(row["seconds"]),
            virtual if virtual > 0 else "-",
            blocked if waits else "-",
            max(waits, key=waits.__getitem__) if blocked > 0 else "-",
        ])
    n_failed = sum(1 for row in rows if row["fleet"]["status"] == "failed")
    title = f"suite: {len(rows)} bench(es)"
    if n_failed:
        title += f", {n_failed} FAILED"
    return format_table(
        ["bench", "status", "tags", "wall s", "virtual s", "blocked s", "dominant wait"],
        table, title,
    )
