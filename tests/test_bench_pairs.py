"""The no-regression verdict of scripts/bench_pairs.py on hand-made pairs
of (parent, change) values."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)
verdict = bench_pairs.regression_verdict


def test_a_median_worse_by_more_than_the_bound_regressed():
    # Parent median 100, margin 25: a change median of 70 lost 30.
    pairs = [(100.0, 70.0), (99.0, 71.0), (101.0, 69.0)]
    assert verdict(True, 0.25, pairs) == "regressed"
    # The same numbers where lower is better: the change got better.
    assert verdict(False, 0.25, pairs) == "within bound"
    # Lower is better, 5% bound: 100 -> 106 lost 6 against a margin of 5.
    assert verdict(False, 0.05, [(100.0, 106.0), (100.5, 106.0), (99.5, 106.5)]) == "regressed"


def test_a_spread_wider_than_the_margin_is_unresolved_unless_the_change_wins_every_run():
    # Parent quartiles 90 .. 110 (median 100), margin 5; the change median
    # of 98 is within the margin, but the pairs cannot tell.
    parents = [80.0, 90.0, 100.0, 110.0, 120.0]
    changes = [96.0, 97.0, 98.0, 99.0, 100.0]
    assert verdict(True, 0.05, list(zip(parents, changes))) == "unresolved"
    # Every change run above every parent run: resolved.
    assert verdict(True, 0.05, list(zip(parents, [121.0, 122.0, 123.0, 124.0, 125.0]))) == "within bound"


def test_a_tight_parent_within_the_margin_is_within_bound():
    pairs = [(100.0, 98.0), (100.5, 99.0), (99.5, 97.5)]
    assert verdict(True, 0.05, pairs) == "within bound"
    assert verdict(False, 0.05, pairs) == "within bound"
