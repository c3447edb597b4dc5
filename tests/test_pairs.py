"""The claim verdict of ``tools/pairs.py`` on fixed samples."""

import doctest
import importlib.util
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


def test_doctests():
    assert doctest.testmod(_pairs()).failed == 0
