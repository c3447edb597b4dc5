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

``index.sqlite`` is a disposable query accelerator — JSONL stays the
source of truth, the way ``benchmarks/baseline.jsonl`` does for the
fleet gate.  :meth:`ResultStore.finalize` rebuilds it, in one
transaction from the rows it holds, when either file changed or the
index is stale (missing, or not strictly newer than both files);
:meth:`ResultStore.query` rebuilds it from the files when it is stale
or cannot be read.  The finalized files are replaced only when their
bytes differ, so a rerun of a finished campaign leaves all three
inodes and mtimes alone and syncs nothing; whenever ``results.jsonl``
*is* written it is temp + ``fsync`` + ``os.replace``.

A campaign *in progress* also holds ``ledger.jsonl``, the crash
ledger: each completed shard appends exactly the line ``results.jsonl``
will later carry, a failed shard the same shape with ``error`` in place
of ``result``, so ``tail -f ledger.jsonl`` is the live view.  A
campaign appends through one handle (:meth:`ResultStore.appending`),
flushed after every line.

**A line is encoded once, then carried.**  Every record the store
reads or appends is a :class:`Record` carrying its line: the line
``load_results`` read, the line ``load_ledger`` validated, the line
``append_ledger`` encoded for a computed shard.  That line is the one
``results.jsonl`` gets, so :meth:`ResultStore.canonical_result_line`
runs only for a record that arrives without one (a plain ``dict``
handed to :meth:`ResultStore.write_results`), and a rerun of a finished
campaign encodes no result line and writes nothing.

The files are read by opposite rules.  The ledger *heals*:
:meth:`ResultStore.load_ledger` returns only newline-terminated lines
that parse, carry a ``result`` and whose spec still has their ``kind``
and re-fingerprints to their ``fingerprint``; anything else is skipped
and that shard recomputes, and a killed writer's fragment after the
last newline is cut off before the next append.  The finalized files
*refuse*:
:meth:`ResultStore.load_results` and :meth:`ResultStore.load_shards`
raise ``ValueError`` naming file and line on the first damaged one.
``results.jsonl`` is the store's own output, so a line of it that
parses and carries the keys is trusted and taken verbatim: a line
re-serialised by hand (other spacing, other key order) is carried
through every later run, not rewritten.  The ledger is removed once
``results.jsonl`` is in place, so disk stays bounded without a knob.

Neither rule sees a flipped digit inside a ``result`` value (the
fingerprint covers the spec only), nor a results line re-serialised by
hand.  Line checksums for both files are ROADMAP item 3.
"""

from __future__ import annotations

import contextlib
import json
import os
import sqlite3
from typing import Any, BinaryIO, Iterable, Iterator, Mapping

from .fingerprint import canonical_json, scenario_fingerprint_hex

__all__ = ["ResultStore", "SHARD_STATUSES"]

#: Every status a shard row may carry.
SHARD_STATUSES = ("computed", "dedupe", "resumed", "cached", "failed")

_RESULT_KEYS = ("fingerprint", "kind", "spec", "result")

#: ``json.dumps(row, sort_keys=True)`` without a new encoder per row.
_encode_row = json.JSONEncoder(sort_keys=True).encode


class Record(dict):
    """A row that carries ``line``, the bytes (newline included) it was
    read as, or for a result record the line it was first encoded to:
    no line is encoded twice.  ``dict`` equality ignores it."""

    line: bytes | None = None


class ResultStore:
    """Files-on-disk view of one campaign directory."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.results_path = os.path.join(root, "results.jsonl")
        self.shards_path = os.path.join(root, "shards.jsonl")
        self.ledger_path = os.path.join(root, "ledger.jsonl")
        self.db_path = os.path.join(root, "index.sqlite")
        self._holding = False  # inside :meth:`appending`
        self._ledger: BinaryIO | None = None

    @staticmethod
    def _load_finalized(path: str, keys: tuple[str, ...]) -> list[Record]:
        """Rows of a finalized JSONL file ([] if absent), each carrying
        its line.  Refuses with a ``ValueError`` naming path and line
        number on the first line that is not a JSON object carrying
        every one of ``keys``."""
        rows: list[Record] = []
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
                row = Record(row)
                row.line = line if line.endswith(b"\n") else line + b"\n"
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

    @classmethod
    def _result_line(cls, record: Mapping) -> bytes:
        """The line ``record`` carries, else its canonical line (which a
        :class:`Record` then carries)."""
        line = getattr(record, "line", None)
        if line is None:
            line = cls.canonical_result_line(record).encode("ascii") + b"\n"
            if isinstance(record, Record):
                record.line = line
        return line

    @staticmethod
    def _replace(path: str, data: bytes, *, sync: bool) -> bool:
        """Make ``path`` hold exactly ``data``.  ``False``, the file
        untouched, when it already does; else temp (+ ``fsync`` when
        ``sync``) + ``os.replace``."""
        try:
            with open(path, "rb") as fh:
                if fh.read() == data:
                    return False
        except FileNotFoundError:
            pass
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as fh:
            fh.write(data)
            if sync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
        return True

    def _put_results(self, records: Iterable[Mapping]) -> bool:
        data = b"".join(self._result_line(r) for r in records)
        changed = self._replace(self.results_path, data, sync=True)
        if os.path.exists(self.ledger_path):
            os.remove(self.ledger_path)
        return changed

    def write_results(self, records: Iterable[Mapping]) -> str:
        """Make ``results.jsonl`` hold ``records``, one line each (the
        line a :class:`Record` carries, else the canonical one;
        atomically: temp + ``fsync`` + ``os.replace``, unless it already
        holds those bytes), then drop the crash ledger it supersedes."""
        self._put_results(records)
        return self.results_path

    def load_results(self) -> dict[str, dict]:
        """Finalized results keyed by fingerprint hex ({} if none), each
        a :class:`Record` carrying the line it was read as."""
        return {r["fingerprint"]: r
                for r in self._load_finalized(self.results_path, _RESULT_KEYS)}

    # -- crash ledger ----------------------------------------------------
    @contextlib.contextmanager
    def appending(self) -> Iterator["ResultStore"]:
        """Inside, :meth:`append_ledger` keeps one handle: opened at the
        first append, closed on the way out, whatever ends the block."""
        self._holding = True
        try:
            yield self
        finally:
            self._holding = False
            if self._ledger is not None:
                self._ledger.close()
                self._ledger = None

    def append_ledger(self, record: Mapping) -> None:
        """Append one finished shard as one flushed line: the
        ``results.jsonl`` line if it carries ``result``, else the same
        shape with ``error``.  Opening the ledger cuts a killed
        writer's fragment after the last newline, so it is never glued
        to the new line; every line is flushed before this returns, so
        a pool forked while the handle is open inherits no buffer."""
        if "result" in record:
            line = self._result_line(record)
        else:
            fields = {k: record[k] for k in (*_RESULT_KEYS[:3], "error")}
            line = canonical_json(fields).encode("ascii") + b"\n"
        # Outside :meth:`appending`, this one append is a block of its own.
        with contextlib.nullcontext() if self._holding else self.appending():
            if self._ledger is None:
                self._ledger = open(self.ledger_path, "ab+")
                self._ledger.seek(0)
                self._ledger.truncate(self._ledger.read().rfind(b"\n") + 1)
            self._ledger.write(line)
            self._ledger.flush()

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
                    record = Record(record)
                    record.line = line + b"\n"
                    out[record["fingerprint"]] = record
            except Exception:  # noqa: BLE001 — any damage means recompute
                continue
        return out

    # -- operational record ---------------------------------------------
    def _put_shards(self, rows: Iterable[Mapping]) -> bool:
        data = "".join(_encode_row(row) + "\n" for row in rows)
        return self._replace(self.shards_path, data.encode("ascii"), sync=False)

    def write_shards(self, rows: Iterable[Mapping]) -> str:
        self._put_shards(rows)
        return self.shards_path

    def load_shards(self) -> list[dict]:
        return self._load_finalized(
            self.shards_path, ("index", "fingerprint", "kind", "status"))

    # -- finalization and the sqlite query side ---------------------------
    def finalize(self, records: Iterable[Mapping], rows: Iterable[Mapping]) -> None:
        """Leave the directory finished: ``results.jsonl`` (which
        retires the ledger), ``shards.jsonl``, and the index, rebuilt
        from what is in hand if either file changed or it is stale."""
        records, rows = list(records), list(rows)
        changed = [self._put_results(records), self._put_shards(rows)]
        if any(changed) or self._index_stale():
            self._write_index(records, rows)

    def _index_stale(self) -> bool:
        """Missing, or not strictly newer than both finalized files: a
        tie at the kernel's timestamp tick costs one rebuild, never a
        stale answer."""
        def mtime_ns(path: str) -> int:
            try:
                return os.stat(path).st_mtime_ns
            except FileNotFoundError:
                return -1

        return mtime_ns(self.db_path) <= max(
            mtime_ns(self.results_path), mtime_ns(self.shards_path))

    def _write_index(self, records: Iterable[Mapping], rows: Iterable[Mapping]) -> None:
        tmp = f"{self.db_path}.tmp.{os.getpid()}"
        if os.path.exists(tmp):
            os.remove(tmp)
        con = sqlite3.connect(tmp, isolation_level=None)
        try:
            con.execute("BEGIN")  # one transaction: one journal, one sync
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
                    for r in records
                ],
            )
            con.executemany(
                "INSERT INTO shards VALUES (?, ?, ?, ?, ?, ?)",
                [
                    (row["index"], row["fingerprint"], row["kind"], row["status"],
                     row.get("seconds"), row.get("error"))
                    for row in rows
                ],
            )
            con.execute("COMMIT")
        finally:
            con.close()
        os.replace(tmp, self.db_path)

    def build_index(self) -> str:
        """(Re)build ``index.sqlite`` from the JSONL source of truth."""
        self._write_index(self.load_results().values(), self.load_shards())
        return self.db_path

    def _select(self, sql: str, args: list) -> list[tuple]:
        con = sqlite3.connect(self.db_path)
        try:
            return con.execute(sql, args).fetchall()
        finally:
            con.close()

    def query(self, kind: str | None = None, limit: int | None = None) -> list[dict]:
        """Results (spec + result decoded), optionally by kind.

        Served from sqlite; the index is rebuilt from the JSONL files
        first when stale, and once more if it cannot be read (it is
        disposable: truncated, overwritten or emptied, it is rebuilt).
        """
        if self._index_stale():
            self.build_index()
        sql = "SELECT fingerprint, kind, spec, result FROM results"
        args: list[Any] = []
        if kind is not None:
            sql += " WHERE kind = ?"
            args.append(kind)
        sql += " ORDER BY fingerprint"
        if limit is not None:
            sql += " LIMIT ?"
            args.append(int(limit))
        try:
            rows = self._select(sql, args)
        except sqlite3.DatabaseError:
            self.build_index()
            rows = self._select(sql, args)
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
