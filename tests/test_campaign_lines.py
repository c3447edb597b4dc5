"""Carried result lines and the campaign's one ledger handle.

A campaign encodes each result line once: ``append_ledger`` encodes a
computed shard's line, and that line, the line ``load_results`` read or
the line ``load_ledger`` validated is what ``results.jsonl`` gets.  So
the file stays canonical only because every carried line started out
canonical; the property test below holds that over arbitrary sequences
of campaigns into one directory, against the reference finalizer of
``test_campaign_finalize.py``.  The trust rule of the store docstring
(a finalized line that parses and has the keys is taken verbatim) is
pinned by one fixed test.

The ledger is appended through one handle per campaign: opened by the
first append, flushed after every line, closed however the shard loop
ends.  The drills hold all three: one open, whole lines after a
SIGKILL, no handle left behind by an exception.
"""

import gc
import json
import os
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.campaign.store as store_module
from repro.campaign import ClusterSpec, ResultStore, run_campaign, save_catalog, sweep
from tests.test_campaign_finalize import BAD, _read_jsonl, reference_run, snapshot

POOL = [
    ClusterSpec(n_nodes=8, work_hours=12.0),
    ClusterSpec(n_nodes=16),
    ClusterSpec(n_nodes=32, state_gb_per_node=2.5),
    ClusterSpec(n_nodes=64, restart_hours=0.0),
    ClusterSpec(n_nodes=128, work_hours=480.0),
    BAD,  # fails at run time: never cached, recomputed by every run
]


def _canonical(data: bytes) -> bytes:
    """What ``results.jsonl`` holding ``data`` holds when every line is
    the canonical encoding of its own row, in file order."""
    return "".join(ResultStore.canonical_result_line(json.loads(line)) + "\n"
                   for line in data.splitlines()).encode("ascii")


@settings(max_examples=25, deadline=None)
@given(sequence=st.lists(st.lists(st.sampled_from(POOL), max_size=8), min_size=1, max_size=4))
def test_carried_lines_stay_canonical(tmp_path_factory, sequence):
    """Sub-catalogs, reorders, duplicates and failures, one directory:
    after every run ``results.jsonl`` is canonical line by line and is
    what the reference finalizer writes."""
    base = tmp_path_factory.mktemp("sequence")
    under_test, reference = str(base / "t"), str(base / "ref")
    for catalog in sequence:
        run_campaign(catalog, under_test, workers=1)
        with open(os.path.join(under_test, "results.jsonl"), "rb") as fh:
            data = fh.read()
        assert data == _canonical(data)
        seconds = [row["seconds"] for row in _read_jsonl(os.path.join(under_test, "shards.jsonl"))]
        reference_run(catalog, reference, seconds)
        assert snapshot(under_test) == snapshot(reference)


def test_the_trust_rule(tmp_path):
    """A hand-reformatted line parses and has the keys, so it is carried
    verbatim through a warm rerun and still loads; a damaged line is
    still refused, naming file and line."""
    catalog = POOL[:3]
    root = str(tmp_path / "c")
    run_campaign(catalog, root)
    store = ResultStore(root)
    with open(store.results_path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    row = json.loads(lines[1])
    lines[1] = (json.dumps(dict(reversed(row.items()))) + "\n").encode("ascii")
    assert lines[1] != _canonical(lines[1])
    with open(store.results_path, "wb") as fh:
        fh.write(b"".join(lines))

    report = run_campaign(catalog, root)
    assert (report.cache_hits, report.computed) == (3, 0)
    with open(store.results_path, "rb") as fh:
        assert fh.read() == b"".join(lines)
    assert store.load_results()[row["fingerprint"]] == row
    assert len(store.query()) == 3

    lines[2] = lines[2][:40] + b"\n"
    with open(store.results_path, "wb") as fh:
        fh.write(b"".join(lines))
    with pytest.raises(ValueError, match=re.escape(f"{store.results_path}:3:")):
        run_campaign(catalog, root)


def test_a_campaign_opens_its_ledger_once(tmp_path, monkeypatch):
    """Twelve computed shards and a failed one: ``ledger.jsonl`` opened
    for appending once, thirteen lines; a rerun does not open it for that."""
    opened = []

    def counting_open(path, mode="r", *args, **kwargs):
        opened.append((path, mode))
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(store_module, "open", counting_open, raising=False)
    catalog = [*sweep(ClusterSpec(), n_nodes=list(range(8, 20))), BAD]
    root = str(tmp_path / "c")
    seen_lines = []
    append = ResultStore.append_ledger

    def spy(store, record):
        append(store, record)
        with open(store.ledger_path, "rb") as fh:
            seen_lines.append(fh.read().count(b"\n"))

    monkeypatch.setattr(ResultStore, "append_ledger", spy)
    report = run_campaign(catalog, root, workers=1)
    assert (report.computed, report.failed) == (12, 1)
    ledger = os.path.join(root, "ledger.jsonl")
    assert opened.count((ledger, "ab+")) == 1
    assert seen_lines == list(range(1, 14))  # each line flushed before the next shard

    opened.clear()
    report = run_campaign(catalog[:-1], root, workers=1)
    assert report.cache_hits == 12
    assert (ledger, "ab+") not in opened


def test_an_exception_in_the_shard_loop_closes_the_ledger(tmp_path, monkeypatch):
    """The coordinator is interrupted after its second ledger line: the
    one handle both lines went through is closed (no ``ResourceWarning``
    when it is collected), and a rerun resumes both lines."""
    append = ResultStore.append_ledger
    handles = []

    def interrupted(store, record):
        append(store, record)
        handles.append(store._ledger)
        if len(handles) == 2:
            raise KeyboardInterrupt("coordinator interrupted mid-campaign")

    catalog = POOL[:4]
    root = str(tmp_path / "c")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with monkeypatch.context() as patch:
            patch.setattr(ResultStore, "append_ledger", interrupted)
            with pytest.raises(KeyboardInterrupt):
                run_campaign(catalog, root, workers=1)
        gc.collect()
    assert handles[0] is handles[1] and handles[0].closed
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    report = run_campaign(catalog, root, workers=1)
    assert (report.resume_hits, report.computed) == (2, 2)


@pytest.mark.slow
def test_killed_campaign_leaves_whole_lines(tmp_path, sigkill_mid_campaign):
    """SIGKILL a pooled campaign mid-run: before the torn tail, every
    ledger line is newline-terminated, parses and names a survivor
    once; nothing a re-forked pool inherited was written twice."""
    catalog = list(sweep(ClusterSpec(work_hours=12.0), n_nodes=list(range(8, 24))))
    catalog_path = tmp_path / "catalog.jsonl"
    save_catalog(catalog, str(catalog_path))
    crash_dir = tmp_path / "crashed"
    survivors = sigkill_mid_campaign(
        ["repro.campaign", "run", str(catalog_path), "--dir", str(crash_dir),
         "--workers", "2", "--throttle", "0.15"], crash_dir)
    with open(crash_dir / "ledger.jsonl", "rb") as fh:
        *lines, _tail = fh.read().split(b"\n")
    fingerprints = [json.loads(line)["fingerprint"] for line in lines]
    assert sorted(fingerprints) == sorted(survivors)

    report = run_campaign(catalog, str(crash_dir), workers=1)
    assert report.resume_hits == len(survivors)
    assert report.computed == len(catalog) - len(survivors)
