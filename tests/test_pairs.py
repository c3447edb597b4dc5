"""The claim verdict of ``tools/pairs.py`` on fixed samples."""

import doctest
import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _pairs():
    """``tools/pairs.py`` as a module (``tools`` is no package)."""
    spec = importlib.util.spec_from_file_location("pairs", REPO / "tools" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [0.200, 0.204, 0.198, 0.210, 0.202, 0.199, 0.205, 0.201, 0.203, 0.207]


@pytest.mark.parametrize("change, lower, expected", [
    ([x * 0.93 for x in PARENT], True, "better"),   # 7% lower, spread about 2.5%
    ([x * 1.07 for x in PARENT], True, "worse"),
    ([x * 0.99 for x in PARENT], True, "same"),     # inside the parent's spread
    (PARENT, True, "same"),
    ([x * 1.07 for x in PARENT], False, "better"),  # a throughput: higher is better
])
def test_verdict_is_median_gap_against_parent_spread(change, lower, expected):
    assert _pairs().verdict(PARENT, change, lower) == expected


def test_verdict_reads_the_parent_spread_only():
    # A wide change spread does not make a clear gap "same"; a wide
    # parent spread does.
    assert _pairs().verdict([1.0] * 5, [0.5, 0.9, 0.9, 0.9, 0.95]) == "better"
    assert _pairs().verdict([0.8, 0.9, 1.0, 1.1, 1.2], [0.9] * 5) == "same"


def test_verdict_wants_nine_pairs_in_ten():
    # A gap far outside the parent's spread, but the change won 8 of 10
    # pairs (lost 8 of 10 the other way round): neither is a verdict.
    change = [x * 0.9 for x in PARENT[:8]] + [x * 1.01 for x in PARENT[8:]]
    assert _pairs().verdict(PARENT, change) == "same"
    assert _pairs().verdict(change, PARENT) == "same"
    assert _pairs().verdict(PARENT, change[:9] + [PARENT[9] * 0.9]) == "better"
    # A tie is no pair won.
    assert _pairs().verdict(PARENT, [x * 0.9 for x in PARENT[:9]] + PARENT[9:]) == "better"
    assert _pairs().verdict(PARENT, [x * 0.9 for x in PARENT[:8]] + PARENT[8:]) == "same"


def test_verdict_is_unresolved_past_the_bound():
    wide = [1.0, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 1.35]  # quartile spread 40%
    assert _pairs().verdict(wide, [x * 0.5 for x in wide], bound=0.25) == "unresolved"
    assert _pairs().verdict(PARENT, [x * 0.5 for x in wide], bound=0.25) == "unresolved"
    assert _pairs().verdict(wide, [x * 0.5 for x in wide]) == "better"
    assert _pairs().verdict(PARENT, PARENT, bound=0.25) == "same"
    # ... unless every run of the change is better than every run of the parent.
    assert _pairs().verdict(wide, [x * 0.3 for x in wide], bound=0.25) == "better"
    assert _pairs().verdict(wide, [x * 3 for x in wide], False, bound=0.25) == "better"


def test_row_counts_pairs_won_and_median_gap():
    pairs = _pairs()
    assert pairs.row("ranks_comm wall_s", "701-710", PARENT, [x * 0.93 for x in PARENT]) == (
        "| ranks_comm wall_s | 701-710 | 0.2025 [0.2003, 0.2047] | 0.1883 [0.1862, 0.1904] | "
        "10/10 (-7.0%) | better |")
    assert pairs.declared("wall_s") == (True, 0.25)
    assert pairs.declared("work_per_s") == (False, 0.25)


def _sample(wall_s, host_scale):
    """One perfbench run as ``_perfbench`` returns it."""
    return {"wall_s": wall_s, "work_per_s": 1.0 / wall_s, "cpu_s": 0.9 * wall_s,
            "peak_rss_mb": 61.5, "setup_s": 0.3, "host_scale": host_scale}


def test_record_holds_every_sample_and_row():
    pairs = _pairs()
    seeds = list(range(1701, 1711))
    change_wall = [x * 0.7 for x in PARENT]
    samples = [[_sample(x, 0.9) for x in PARENT], [_sample(x, 0.8) for x in change_wall]]
    record = pairs.bench_record(("a" * 40, "b" * 40), "campaign_io", seeds, samples,
                                "wall_s", 12.5)
    assert json.loads(json.dumps(record)) == record  # plain JSON
    assert {k: record[k] for k in ("parent", "change", "working_tree", "workload", "seeds",
                                   "metric", "steal_s", "verdict")} == {
        "parent": "a" * 40, "change": "b" * 40, "working_tree": False,
        "workload": "campaign_io", "seeds": seeds, "metric": "wall_s", "steal_s": 12.5,
        "verdict": "better"}
    assert [p["seed"] for p in record["pairs"]] == seeds
    assert [p["first"] for p in record["pairs"]] == ["parent", "change"] * 5
    assert [p["parent"] for p in record["pairs"]] == samples[0]
    assert [p["change"] for p in record["pairs"]] == samples[1]
    # One row per end-to-end metric, in BENCHMARK.json's order; host_scale is none.
    rows = {r.pop("metric"): r for r in record["rows"]}
    assert list(rows) == ["wall_s", "work_per_s", "cpu_s", "peak_rss_mb", "setup_s"]
    assert rows["wall_s"] == pairs.stats(PARENT, change_wall, True, 0.25)
    assert rows["wall_s"]["parent"] == pytest.approx(
        {"q1": 0.20025, "median": 0.2025, "q3": 0.20475})
    assert (rows["wall_s"]["won"], rows["wall_s"]["pairs"]) == (10, 10)
    assert rows["wall_s"]["gap"] == pytest.approx(-0.3)
    assert rows["work_per_s"]["verdict"] == "better"   # higher is better
    assert rows["peak_rss_mb"]["verdict"] == "same"
    assert rows["peak_rss_mb"]["won"] == 0


def test_steal_seconds_read_or_none():
    steal = _pairs()._steal_s()
    assert steal is None or steal >= 0.0


def test_doctests():
    assert doctest.testmod(_pairs()).failed == 0
