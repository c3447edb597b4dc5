"""Uniform benchmark-record harness for ``benchmarks/bench_*.py``.

A bench is one declaration, ``BENCH = Bench(tags, build, check, ...)``
(:class:`Bench`), and one way to run it.  ``build(**sizes)`` is the
payload; ``check(result)`` holds the paper claims as plain ``assert``
statements over what the payload computed; ``report(result)`` returns
the table the bench regenerates, as text.  :meth:`Bench.run` runs the
payload once, wall-times it, prints the report, runs the check, and
returns a record with a fixed shape — name, params, measured seconds,
virtual (simulated) seconds, named counters, git revision, and host —
validated against ``benchmarks/schema.json``.  A claim that fails is an
``AssertionError`` out of the run: standalone a traceback under the
table it contradicts, in the fleet a ``failed`` row and exit status 1.
There is no second path: no bench defines a ``test_*`` function.

:meth:`Bench.run` writes nothing: a record reaches disk only where a
caller names the destination, which is the fleet coordinator
(``python -m repro.obs fleet --history``) or the standalone command
line every bench shares, :meth:`Bench.cli` (``--out DIR`` writes
``BENCH_<name>.json``, ``--history PATH`` appends one line to a history
JSONL).

What several benches would otherwise each copy also lives here, once:
:func:`sphere_cloud` (the treecode benches' particle cloud),
:func:`comm_health_counters` and :func:`shard_breakdown` (counter and
sub-record shapes the fleet gate and schema read).

The schema checker is a deliberate small subset of JSON Schema
(``type``, ``required``, ``properties``, ``additionalProperties``,
``pattern``, ``minimum``, ``items``) so the suite needs no third-party
validator; it lives in :mod:`repro.obs.schemacheck` (shared with the
fleet ledger and the ``python -m repro.obs validate`` CI step);
:func:`validate_record` applies it with the schema :func:`load_schema`
reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import time
import traceback
from dataclasses import KW_ONLY, dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from repro.obs.schemacheck import validate_value

__all__ = [
    "SCHEMA_PATH",
    "SCHEMA_VERSION",
    "Bench",
    "append_history",
    "bench_record",
    "comm_health_counters",
    "emit",
    "git_rev",
    "load_schema",
    "shard_breakdown",
    "sphere_cloud",
    "validate_record",
    "write_atomic",
]

SCHEMA_VERSION = 1
SCHEMA_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "schema.json")


def git_rev() -> str:
    """Short hash of the checked-out revision, or ``"unknown"``."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and re.fullmatch(r"[0-9a-f]{7,40}", rev) else "unknown"


def load_schema(path: str = SCHEMA_PATH) -> dict:
    """The record schema: the one loader :meth:`Bench.run`, the fleet runner
    and ``python -m repro.obs validate`` share."""
    with open(path) as fh:
        return json.load(fh)


def validate_record(record: Any, schema: Mapping | None = None) -> list[str]:
    """Check ``record`` against the subset JSON Schema; returns errors."""
    return validate_value(record, schema if schema is not None else load_schema())


def bench_record(
    name: str,
    *,
    params: Mapping | None = None,
    seconds: float,
    virtual_seconds: float = 0.0,
    counters: Mapping[str, float] | None = None,
    notes: str = "",
    shards: list[Mapping] | None = None,
) -> dict:
    """Assemble (but do not validate) one uniform benchmark record.

    ``shards`` is the optional per-shard breakdown campaign benches
    attach (fingerprint, status, seconds per shard); scalar benches
    omit it and their records keep the original shape.
    """
    record = {
        "schema_version": SCHEMA_VERSION,
        "name": str(name),
        "params": dict(params or {}),
        "seconds": float(seconds),
        "virtual_seconds": float(virtual_seconds),
        "counters": {str(k): float(v) for k, v in dict(counters or {}).items()},
        "git_rev": git_rev(),
        "host": f"{platform.system()}-{platform.machine()}-py{platform.python_version()}",
        "notes": str(notes),
    }
    if shards is not None:
        record["shards"] = [dict(s) for s in shards]
    return record


def shard_breakdown(store_rows: list[Mapping]) -> list[dict]:
    """The ``shards`` sub-records of a campaign bench: what the schema
    keeps of each ``ResultStore.load_shards()`` row."""
    return [
        {
            "fingerprint": r["fingerprint"],
            "status": r["status"],
            "kind": r["kind"],
            "seconds": max(0.0, float(r.get("seconds") or 0.0)),
        }
        for r in store_rows
    ]


def comm_health_counters(comm_stats: Mapping, waits_by_cause: Mapping) -> dict:
    """Latency-hiding health of one parallel treecode solve, under the
    counter names the fleet gate and report read: cell-cache
    effectiveness (the gate holds ``hit_rate``'s floor) and the engine's
    wait-state mix in virtual seconds."""
    hits = comm_stats.get("cache_hits", 0.0)
    misses = comm_stats.get("cache_misses", 0.0)
    out = {
        "cellcache.hits": hits,
        "cellcache.misses": misses,
        "cellcache.hit_rate": hits / max(1.0, hits + misses),
    }
    out.update({f"wait.{cause}_s": s for cause, s in waits_by_cause.items()})
    return out


def sphere_cloud(rng: np.random.Generator, n: int, radial_power: float):
    """``n`` equal-mass particles in the unit ball, radii ``U**radial_power``
    (1/3 is uniform, larger is centrally condensed): the test cloud of
    the treecode benches.  Returns ``(positions, masses)``."""
    r = rng.random(n) ** radial_power
    d = rng.standard_normal((n, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return r[:, None] * d, np.full(n, 1.0 / n)


def emit(record: Mapping, out_dir: str) -> str:
    """Write ``<out_dir>/BENCH_<name>.json``; returns the path written."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{record['name']}.json")
    with open(path, "w") as fh:
        fh.write(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def write_atomic(path: str, text: str) -> None:
    """Replace ``path`` with ``text``, all or nothing.

    The text goes to a temp file which then replaces the original via
    ``os.replace``, so a writer killed mid-way can never truncate or
    tear the file: the reader sees either the old content or the new.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def append_history(record: Mapping, path: str) -> str:
    """Append one record (plus a UTC timestamp) to the history JSONL.

    ``path`` is the file, or a directory meaning
    ``<dir>/history.jsonl``.  The file is the longitudinal record
    ``repro.obs.history`` computes rolling baselines from; lines are
    self-contained JSON objects, oldest first.  Returns the file path.

    The append is **atomic** (:func:`write_atomic` of the existing
    history plus the new line): a bench run killed mid-append can never
    truncate or tear ``baseline.jsonl``.  History files are small (one
    line per bench run), so the rewrite is cheap.
    """
    if os.path.isdir(path):
        path = os.path.join(path, "history.jsonl")
    path = os.path.abspath(path)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    entry = dict(record)
    entry["ts"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    existing = ""
    if os.path.exists(path):
        with open(path) as fh:
            existing = fh.read()
        if existing and not existing.endswith("\n"):
            existing += "\n"  # heal a pre-atomic torn tail
    write_atomic(path, existing + json.dumps(entry, sort_keys=True) + "\n")
    return path


def _claim_text(exc: AssertionError) -> str:
    """``function:line: source`` of the ``assert`` that raised ``exc``.

    A bare ``assert`` carries no message outside pytest, so the fleet
    row of a failed claim would say only ``AssertionError``; the source
    line is the claim.
    """
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    text = f"{frame.name}:{frame.lineno}: {frame.line}"
    return f"{text} ({exc})" if str(exc) else text


@dataclass(frozen=True)
class Bench:
    """One bench, declared once: what the fleet, the command line and
    the tests all read, as ``BENCH = Bench(tags, build, check, ...)``.

    ``build(**sizes)`` is the payload.  In smoke mode the ``smoke``
    overrides update ``sizes``; ``smoke=None`` says the full workload
    is already CI-cheap and runs unchanged under the same record name.
    Declared overrides cut the problem down, and the record is then
    named ``<stem>_smoke``, so a reduced run never joins a full-mode
    rolling baseline.  The overrides are all a mode is: a claim that
    holds only at full size reads the size from what ``build`` returns.

    ``check`` asserts the bench's claims over the payload's return
    value; ``report`` renders its table and is printed first, so a
    failed claim is read against the numbers it contradicts.  The
    record's ``params`` are the sizes the run used plus ``params``.
    ``params``, ``counters``, ``virtual_seconds``, ``notes`` and
    ``shards`` may each be a callable taking the payload's return
    value, so each bench derives its numbers from what it computed.
    """

    tags: tuple[str, ...]
    build: Callable[..., Any]
    check: Callable[[Any], None]
    _: KW_ONLY
    report: Callable[[Any], str] | None = None
    sizes: Mapping[str, Any] = field(default_factory=dict)
    smoke: Mapping[str, Any] | None = None
    params: Mapping | Callable[[Any], Mapping] | None = None
    counters: Mapping[str, float] | Callable[[Any], Mapping[str, float]] | None = None
    virtual_seconds: float | Callable[[Any], float] = 0.0
    notes: str | Callable[[Any], str] = ""
    shards: list[Mapping] | Callable[[Any], list[Mapping]] | None = None

    def record_name(self, stem: str, smoke: bool) -> str:
        """``<stem>_smoke`` for a smoke run of reduced sizes, else ``stem``."""
        return f"{stem}_smoke" if smoke and self.smoke is not None else stem

    def run(self, stem: str, smoke: bool = False) -> dict:
        """Run the payload of ``bench_<stem>.py`` once, check its claims,
        return its validated record.

        Only ``build`` is timed.  The record is printed and returned,
        never written: see :meth:`cli` and
        :func:`repro.obs.fleet.run_fleet` for the writers.
        """
        name = self.record_name(stem, smoke)
        sizes = {**self.sizes, **(self.smoke or {})} if smoke else dict(self.sizes)
        t0 = time.perf_counter()
        result = self.build(**sizes)
        seconds = time.perf_counter() - t0
        if self.report is not None:
            print(self.report(result))
        try:
            self.check(result)
        except AssertionError as exc:
            raise AssertionError(f"claim failed in bench {name!r}: {_claim_text(exc)}") from exc

        def of(value):
            return value(result) if callable(value) else value

        record = bench_record(
            name, params={**sizes, **(of(self.params) or {})}, seconds=seconds,
            virtual_seconds=of(self.virtual_seconds), counters=of(self.counters),
            notes=of(self.notes), shards=of(self.shards),
        )
        errors = validate_record(record)
        if errors:
            raise ValueError(f"bench record for {name!r} violates schema.json: {errors}")
        print(json.dumps(record, indent=2, sort_keys=True))
        return record

    def cli(self, path: str, doc: str | None = None, argv: list[str] | None = None) -> dict:
        """The command line of every ``bench_*.py``: run the bench whose
        file is ``path`` once (the file's guard passes ``__file__``).

        ``--smoke`` runs the ``smoke`` sizes; ``--out DIR`` and
        ``--history PATH`` are the only way a standalone run writes its
        record (:func:`emit`, :func:`append_history`).
        """
        parser = argparse.ArgumentParser(
            description=doc.strip().splitlines()[0] if doc else None,
        )
        parser.add_argument("--smoke", action="store_true",
                            help="CI sizes (the bench's smoke= overrides, if any)")
        parser.add_argument("--out", metavar="DIR", default=None,
                            help="also write DIR/BENCH_<name>.json")
        parser.add_argument("--history", metavar="PATH", default=None,
                            help="also append the record to this history JSONL "
                                 "(a directory means PATH/history.jsonl)")
        opts = parser.parse_args(argv)
        stem = os.path.splitext(os.path.basename(path))[0].removeprefix("bench_")
        record = self.run(stem, smoke=opts.smoke)
        if opts.out:
            emit(record, opts.out)
        if opts.history:
            append_history(record, opts.history)
        return record
