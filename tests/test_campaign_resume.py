"""Crash-recovery suite: SIGKILL a running campaign, resume, lose
nothing.

A real ``python -m repro.campaign run`` subprocess is killed with
SIGKILL mid-campaign — no atexit, no cleanup, exactly the §2.1 failure
mode the append-only ``ledger.jsonl`` exists for.  Resume must then
(a) recompute **zero** shards whose line was on disk before the kill,
(b) finish the rest, and (c) finalize a result store byte-identical to
an uninterrupted run of the same catalog.  A torn tail (crash mid-line)
or a damaged line must cost exactly that shard's recompute, and a
finished campaign must leave no ledger behind.  ``CheckpointStore.prune``
keeps its unit tests here, where PR 6 put them.
"""

import json
import os

import numpy as np
import pytest

from repro.campaign import (
    ClusterSpec,
    CosmologySpec,
    ResultStore,
    run_campaign,
    save_catalog,
    sweep,
)
from repro.campaign.fingerprint import scenario_fingerprint_hex
from repro.resilience.checkpoint import CheckpointStore

CATALOG = list(sweep(ClusterSpec(work_hours=12.0), n_nodes=list(range(8, 8 + 16))))
assert len(CATALOG) == 16


def _ledger_record(spec) -> dict:
    """A ledger-shaped record for ``spec`` whose result would be
    visible if it leaked into the store."""
    return {"fingerprint": scenario_fingerprint_hex(spec), "kind": spec.kind,
            "spec": spec.to_dict(), "result": {"bogus": 1.0}}


def _clean_results(tmp_path, catalog) -> bytes:
    clean = run_campaign(catalog, str(tmp_path / "clean"), workers=1)
    assert clean.computed == len(catalog)
    return (tmp_path / "clean" / "results.jsonl").read_bytes()


def _interrupted_ledger(tmp_path, catalog) -> tuple[ResultStore, list[bytes]]:
    """A store holding only the ledger a campaign over ``catalog``
    killed just before finalization would leave; returns its lines."""
    full = tmp_path / "full"
    run_campaign(catalog, str(full), workers=1)
    store = ResultStore(str(tmp_path / "c"))
    for record in ResultStore(str(full)).load_results().values():
        store.append_ledger(record)
    with open(store.ledger_path, "rb") as fh:
        return store, fh.read().splitlines(keepends=True)


@pytest.mark.slow
class TestSigkillResume:
    def test_killed_campaign_resumes_without_recompute(self, tmp_path, sigkill_mid_campaign):
        catalog_path = tmp_path / "catalog.jsonl"
        save_catalog(CATALOG, str(catalog_path))
        crash_dir = tmp_path / "crashed"
        survivors = sigkill_mid_campaign(
            ["repro.campaign", "run", str(catalog_path), "--dir", str(crash_dir),
             "--workers", "2", "--throttle", "0.15"], crash_dir)
        assert 3 <= len(survivors) < 16, "kill landed mid-campaign"

        report = run_campaign(CATALOG, str(crash_dir), workers=1)

        # (a) zero committed shards recomputed, and nothing left out.
        recomputed = set(report.computed_fingerprints) & survivors
        assert recomputed == set()
        assert report.resume_hits == len(survivors)
        assert report.computed == 16 - len(survivors)
        assert report.failed == 0
        expected = {scenario_fingerprint_hex(s) for s in CATALOG}
        assert set(report.computed_fingerprints) | survivors == expected

        # (c) byte-identical to a never-interrupted campaign.
        assert (crash_dir / "results.jsonl").read_bytes() == _clean_results(tmp_path, CATALOG)


class TestTornEpochs:
    SIX = CATALOG[:6]

    def test_torn_epoch_is_ignored(self, tmp_path):
        """A ledger line the crash cut short must not resume."""
        root = tmp_path / "c"
        line = ResultStore.canonical_result_line(_ledger_record(CATALOG[0]))
        root.mkdir()
        (root / "ledger.jsonl").write_text(line)  # no newline: torn tail

        report = run_campaign(CATALOG[:4], str(root), workers=1)
        assert report.resume_hits == 0
        assert report.computed == 4
        # The bogus torn result must not appear in the store.
        results = (root / "results.jsonl").read_text()
        assert "bogus" not in results

    def test_stale_fingerprint_in_ledger_recomputes(self, tmp_path):
        """A complete line whose fingerprint no longer names its spec
        (encoding bump, corruption) is dropped, not trusted."""
        root = tmp_path / "c"
        record = dict(_ledger_record(CATALOG[0]), fingerprint="00" * 16)
        ResultStore(str(root)).append_ledger(record)

        report = run_campaign(CATALOG[:2], str(root), workers=1)
        assert report.resume_hits == 0
        assert report.computed == 2
        assert "bogus" not in (root / "results.jsonl").read_text()

    def test_parent_layout_directory_recomputes(self, tmp_path):
        """A crash directory of the epoch-ledger era (``checkpoints/``,
        no ``results.jsonl``) is not read: everything recomputes."""
        root = tmp_path / "c"
        (root / "checkpoints" / "epoch_000000").mkdir(parents=True)
        (root / "checkpoints" / "epoch_000000" / "COMMIT").write_text("{}")
        report = run_campaign(self.SIX, str(root), workers=1)
        assert (report.resume_hits, report.computed) == (0, 6)
        assert (root / "results.jsonl").read_bytes() == _clean_results(tmp_path, self.SIX)

    def test_truncation_at_every_offset_of_last_line(self, tmp_path):
        """Cut the ledger anywhere inside its last line: exactly that
        shard recomputes, the other five resume, same bytes out."""
        store, lines = _interrupted_ledger(tmp_path, self.SIX)
        last_fp = scenario_fingerprint_hex(self.SIX[-1])
        clean = _clean_results(tmp_path, self.SIX)
        head = b"".join(lines[:-1])
        for cut in range(len(lines[-1])):  # every prefix short of the newline
            with open(store.ledger_path, "wb") as fh:
                fh.write(head + lines[-1][:cut])
            report = run_campaign(self.SIX, store.root, workers=1)
            assert report.computed_fingerprints == [last_fp], cut
            assert report.resume_hits == 5, cut
            with open(store.results_path, "rb") as fh:
                assert fh.read() == clean, cut
            os.remove(store.results_path)  # next cut resumes, not cache-hits

    @pytest.mark.parametrize("damage", ["spec_byte", "not_json"])
    def test_damaged_middle_line_recomputes_only_that_shard(self, tmp_path, damage):
        store, lines = _interrupted_ledger(tmp_path, self.SIX)
        if damage == "spec_byte":
            key = b'"n_nodes":'  # the one inside "spec", the line's last key
            at = lines[2].index(key, lines[2].index(b'"spec":')) + len(key)
            digit = b"1" if lines[2][at:at + 1] != b"1" else b"2"
            lines[2] = lines[2][:at] + digit + lines[2][at + 1:]
            assert json.loads(lines[2])["spec"] != self.SIX[2].to_dict()  # still JSON
        else:
            lines[2] = b"\x00\xff not json at all\n"
        with open(store.ledger_path, "wb") as fh:
            fh.write(b"".join(lines))

        report = run_campaign(self.SIX, store.root, workers=1)
        assert report.computed_fingerprints == [scenario_fingerprint_hex(self.SIX[2])]
        assert report.resume_hits == 5
        with open(store.results_path, "rb") as fh:
            assert fh.read() == _clean_results(tmp_path, self.SIX)


class TestCheckpointPrune:
    def test_prune_keeps_restart_point(self, tmp_path):
        ckpt = CheckpointStore(str(tmp_path / "ck"))
        for epoch in range(5):
            ckpt.write_rank(epoch, 0, {"x": np.array([epoch])}, {"epoch": epoch})
            ckpt.commit(epoch)
        removed = ckpt.prune(keep_last=2)
        assert removed == [0, 1, 2]
        assert ckpt.epochs() == [3, 4]
        assert ckpt.latest_committed() == 4
        assert int(ckpt.load_rank(4, 0)["x"][0]) == 4

    def test_prune_spares_newer_torn_epoch(self, tmp_path):
        ckpt = CheckpointStore(str(tmp_path / "ck"))
        ckpt.write_rank(0, 0, {"x": np.array([0])})
        ckpt.commit(0)
        ckpt.write_rank(1, 0, {"x": np.array([1])})  # in-flight, no commit
        assert ckpt.prune(keep_last=1) == []
        assert ckpt.epochs() == [0, 1]

    def test_prune_removes_older_torn_epoch(self, tmp_path):
        ckpt = CheckpointStore(str(tmp_path / "ck"))
        ckpt.write_rank(0, 0, {"x": np.array([0])})  # torn
        ckpt.write_rank(1, 0, {"x": np.array([1])})
        ckpt.commit(1)
        assert ckpt.prune(keep_last=1) == [0]
        assert ckpt.epochs() == [1]

    def test_prune_validates_keep_last(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointStore(str(tmp_path / "ck")).prune(keep_last=0)

    def test_campaign_disk_stays_bounded(self, tmp_path):
        """Finalization retires the ledger: no knob, nothing to prune."""
        root = tmp_path / "c"
        run_campaign(CATALOG, str(root), workers=1)
        assert sorted(os.listdir(root)) == ["index.sqlite", "results.jsonl", "shards.jsonl"]

    def test_ledger_grows_one_line_per_shard(self, tmp_path, monkeypatch):
        """40 shards (one of them failing): each completion appends
        exactly its own line, so bytes written are linear in shards."""
        bad = CosmologySpec(n_side=4, omega_m=0.4, omega_l=0.7)  # fails at run time
        catalog = list(sweep(ClusterSpec(), n_nodes=list(range(8, 47)))) + [bad]
        assert len(catalog) == 40
        sizes = [0]
        append = ResultStore.append_ledger

        def spy(store, record):
            append(store, record)
            with open(store.ledger_path, "rb") as fh:
                data = fh.read()
            assert data.count(b"\n") == len(sizes)
            key = "result" if "result" in record else "error"
            assert json.loads(data.splitlines()[-1]) == {
                k: record[k] for k in ("fingerprint", "kind", "spec", key)}
            sizes.append(len(data))

        monkeypatch.setattr(ResultStore, "append_ledger", spy)
        root = tmp_path / "c"
        report = run_campaign(catalog, str(root), workers=1)
        assert (report.computed, report.failed) == (39, 1)
        assert len(sizes) == 41
        steps = [b - a for a, b in zip(sizes, sizes[1:])]
        assert max(steps[:39]) - min(steps[:39]) <= 4  # same-shape lines, digits vary
        assert not os.path.exists(root / "ledger.jsonl")
