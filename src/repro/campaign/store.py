"""The campaign result store: queryable, append-only-in-spirit, split
by determinism.

One campaign directory holds two classes of data and never mixes them:

* ``results.jsonl`` — the *deterministic* product: one canonical JSON
  line per unique scenario (fingerprint, kind, spec, result), written
  atomically at campaign finalization in catalog order.  Two runs of
  the same catalog — serial or pooled, fresh or resumed — produce
  byte-identical files; the differential suite enforces it.
* ``shards.jsonl`` — the *operational* record: one line per catalog
  entry with status (``computed`` / ``dedupe`` / ``resumed`` /
  ``cached`` / ``failed``), wall seconds, and errors.  Timings are
  real, so this file is deliberately outside the bit-identity
  contract.

``index.sqlite`` is a disposable query accelerator rebuilt from
``results.jsonl`` whenever it is stale — JSONL stays the source of
truth, the way ``benchmarks/baseline.jsonl`` does for the fleet gate.
``events.jsonl`` is a live append-only progress log for humans tailing
a running campaign; crash recovery never reads it (that is the
checkpoint ledger's job, see :mod:`repro.campaign.runner`).
"""

from __future__ import annotations

import json
import os
import sqlite3
from typing import Any, Iterable, Mapping

from .fingerprint import canonical_json

__all__ = ["ResultStore", "SHARD_STATUSES"]

#: Every status a shard row may carry.
SHARD_STATUSES = ("computed", "dedupe", "resumed", "cached", "failed")

_RESULT_KEYS = ("fingerprint", "kind", "spec", "result")


class ResultStore:
    """Files-on-disk view of one campaign directory."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.results_path = os.path.join(root, "results.jsonl")
        self.shards_path = os.path.join(root, "shards.jsonl")
        self.events_path = os.path.join(root, "events.jsonl")
        self.db_path = os.path.join(root, "index.sqlite")

    # -- deterministic results ------------------------------------------
    @staticmethod
    def canonical_result_line(record: Mapping) -> str:
        """The byte-stable line for one unique scenario's result.

        Only the deterministic keys survive; operational fields the
        runner carries alongside (``seconds``) are stripped here so
        they can never leak into the bit-identity surface.
        """
        return canonical_json({k: record[k] for k in _RESULT_KEYS})

    def write_results(self, records: Iterable[Mapping]) -> str:
        """Atomically replace ``results.jsonl`` (temp + ``os.replace``)."""
        tmp = f"{self.results_path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            for record in records:
                fh.write(self.canonical_result_line(record) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.results_path)
        return self.results_path

    def load_results(self) -> dict[str, dict]:
        """Finalized results keyed by fingerprint hex ({} if none)."""
        out: dict[str, dict] = {}
        if not os.path.exists(self.results_path):
            return out
        with open(self.results_path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    record = json.loads(line)
                    out[record["fingerprint"]] = record
        return out

    # -- operational record ---------------------------------------------
    def write_shards(self, rows: Iterable[Mapping]) -> str:
        tmp = f"{self.shards_path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
        os.replace(tmp, self.shards_path)
        return self.shards_path

    def load_shards(self) -> list[dict]:
        if not os.path.exists(self.shards_path):
            return []
        with open(self.shards_path) as fh:
            return [json.loads(line) for line in fh if line.strip()]

    def append_event(self, event: Mapping) -> None:
        """Best-effort progress line; a torn tail is acceptable here."""
        with open(self.events_path, "a") as fh:
            fh.write(json.dumps(event, sort_keys=True) + "\n")

    # -- sqlite query side ----------------------------------------------
    def _index_stale(self) -> bool:
        if not os.path.exists(self.db_path):
            return True
        if not os.path.exists(self.results_path):
            return False
        return os.path.getmtime(self.db_path) < os.path.getmtime(self.results_path)

    def build_index(self) -> str:
        """(Re)build ``index.sqlite`` from the JSONL source of truth."""
        tmp = f"{self.db_path}.tmp.{os.getpid()}"
        if os.path.exists(tmp):
            os.remove(tmp)
        con = sqlite3.connect(tmp)
        try:
            con.execute(
                "CREATE TABLE results ("
                " fingerprint TEXT PRIMARY KEY, kind TEXT NOT NULL,"
                " spec TEXT NOT NULL, result TEXT NOT NULL)"
            )
            con.execute(
                "CREATE TABLE shards ("
                " idx INTEGER PRIMARY KEY, fingerprint TEXT NOT NULL,"
                " kind TEXT NOT NULL, status TEXT NOT NULL,"
                " seconds REAL, error TEXT)"
            )
            con.execute("CREATE INDEX results_kind ON results(kind)")
            con.executemany(
                "INSERT INTO results VALUES (?, ?, ?, ?)",
                [
                    (r["fingerprint"], r["kind"],
                     canonical_json(r["spec"]), canonical_json(r["result"]))
                    for r in self.load_results().values()
                ],
            )
            con.executemany(
                "INSERT INTO shards VALUES (?, ?, ?, ?, ?, ?)",
                [
                    (row["index"], row["fingerprint"], row["kind"], row["status"],
                     row.get("seconds"), row.get("error"))
                    for row in self.load_shards()
                ],
            )
            con.commit()
        finally:
            con.close()
        os.replace(tmp, self.db_path)
        return self.db_path

    def query(self, kind: str | None = None, limit: int | None = None) -> list[dict]:
        """Results (spec + result decoded), optionally by kind.

        Served from sqlite; the index is rebuilt first when missing or
        older than ``results.jsonl``.
        """
        if self._index_stale():
            self.build_index()
        if not os.path.exists(self.db_path):
            return []
        sql = "SELECT fingerprint, kind, spec, result FROM results"
        args: list[Any] = []
        if kind is not None:
            sql += " WHERE kind = ?"
            args.append(kind)
        sql += " ORDER BY fingerprint"
        if limit is not None:
            sql += " LIMIT ?"
            args.append(int(limit))
        con = sqlite3.connect(self.db_path)
        try:
            rows = con.execute(sql, args).fetchall()
        finally:
            con.close()
        return [
            {"fingerprint": fp, "kind": k,
             "spec": json.loads(spec), "result": json.loads(result)}
            for fp, k, spec, result in rows
        ]

    def status(self) -> dict:
        """Shard-status tallies plus unique-result count."""
        shards = self.load_shards()
        counts = {status: 0 for status in SHARD_STATUSES}
        for row in shards:
            counts[row["status"]] = counts.get(row["status"], 0) + 1
        return {
            "results": len(self.load_results()),
            "shards": len(shards),
            "by_status": counts,
        }
