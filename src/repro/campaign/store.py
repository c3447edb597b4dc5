"""The campaign result store: queryable files, split by determinism.

One finished campaign directory holds two classes of data and never
mixes them:

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

A campaign *in progress* also holds ``ledger.jsonl``, the crash
ledger: each completed shard appends exactly the line ``results.jsonl``
will later carry, a failed shard the same shape with ``error`` in place
of ``result``, so ``tail -f ledger.jsonl`` is the live view.  The two
files are read by opposite rules.  The ledger *heals*:
:meth:`ResultStore.load_ledger` returns only newline-terminated lines
that parse, carry a ``result`` and whose spec still has their ``kind``
and re-fingerprints to their ``fingerprint``; anything else is skipped
and that shard recomputes, and a killed writer's fragment after the
last newline is cut off before the next append.  The finalized files
*refuse*:
:meth:`ResultStore.load_results` and :meth:`ResultStore.load_shards`
raise ``ValueError`` naming file and line on the first damaged one.
The ledger is removed once ``results.jsonl`` is in place, so disk
stays bounded without a knob.

Neither rule sees a flipped digit inside a ``result`` value: the
fingerprint covers the spec only.  Line checksums for both files are
ROADMAP hardening item (c).
"""

from __future__ import annotations

import json
import os
import sqlite3
from typing import Any, Iterable, Mapping

from .fingerprint import canonical_json, scenario_fingerprint_hex

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
        self.ledger_path = os.path.join(root, "ledger.jsonl")
        self.db_path = os.path.join(root, "index.sqlite")

    @staticmethod
    def _load_finalized(path: str, keys: tuple[str, ...]) -> list[dict]:
        """Rows of a finalized JSONL file ([] if absent).  Refuses with
        a ``ValueError`` naming path and line number on the first line
        that is not a JSON object carrying every one of ``keys``."""
        rows: list[dict] = []
        if not os.path.exists(path):
            return rows
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    row = json.loads(line)
                    for key in keys:
                        row[key]  # KeyError / TypeError when not such an object
                except (ValueError, KeyError, TypeError) as exc:
                    raise ValueError(
                        f"{path}:{lineno}: damaged line ({type(exc).__name__}: {exc}); "
                        "finalized campaign files are not healed"
                    ) from exc
                rows.append(row)
        return rows

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
        """Atomically replace ``results.jsonl`` (temp + ``os.replace``),
        then drop the crash ledger it supersedes."""
        tmp = f"{self.results_path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            for record in records:
                fh.write(self.canonical_result_line(record) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.results_path)
        if os.path.exists(self.ledger_path):
            os.remove(self.ledger_path)
        return self.results_path

    def load_results(self) -> dict[str, dict]:
        """Finalized results keyed by fingerprint hex ({} if none)."""
        return {r["fingerprint"]: r
                for r in self._load_finalized(self.results_path, _RESULT_KEYS)}

    # -- crash ledger ----------------------------------------------------
    def append_ledger(self, record: Mapping) -> None:
        """Append one finished shard as one flushed line: the
        ``results.jsonl`` line if it carries ``result``, else the same
        shape with ``error``.  A killed writer's fragment after the
        last newline is cut off first, never glued to the new line."""
        if "result" in record:
            line = self.canonical_result_line(record)
        else:
            line = canonical_json({k: record[k] for k in (*_RESULT_KEYS[:3], "error")})
        with open(self.ledger_path, "ab+") as fh:
            if fh.tell():
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    fh.seek(0)
                    fh.truncate(fh.read().rfind(b"\n") + 1)
            fh.write(line.encode("ascii") + b"\n")

    def load_ledger(self) -> dict[str, dict]:
        """Ledger records that can be trusted, keyed by fingerprint hex.

        Read-only, so safe to poll while a campaign appends.  A line
        counts only if it is newline-terminated, parses, carries
        ``result``, and its spec has its ``kind`` and re-fingerprints
        to its ``fingerprint`` (so an
        :data:`~repro.campaign.fingerprint.ENCODING_VERSION` bump or a
        damaged line recomputes, never aliases).
        """
        try:
            with open(self.ledger_path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return {}
        out: dict[str, dict] = {}
        for line in data.split(b"\n")[:-1]:  # [-1] is the unterminated tail
            try:
                record = json.loads(line)
                spec = record["spec"]
                if ("result" in record and record["kind"] == spec["kind"]
                        and scenario_fingerprint_hex(spec) == record["fingerprint"]):
                    out[record["fingerprint"]] = record
            except Exception:  # noqa: BLE001 — any damage means recompute
                continue
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
        return self._load_finalized(
            self.shards_path, ("index", "fingerprint", "kind", "status"))

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
