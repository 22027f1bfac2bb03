"""The no-regression verdict of scripts/bench_pairs.py on hand-made pairs
of (parent, change) values, and its JSON document on faked runs."""

import importlib.util
import json
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


def test_json_holds_every_pair_both_sides_quartiles_the_verdicts_and_the_machine(tmp_path, monkeypatch):
    # Fake runs: the change's peak RSS 1 MB below the parent's in every pair.
    root = SCRIPT.parent.parent
    calls = []

    def run_once(checkout, workload):
        calls.append((checkout, workload))
        index = len(calls)
        peak = 35.0 + 0.01 * index - (1.0 if checkout == root else 0.0)
        return {"failed": 0, "values": {"rows_per_s": 1800.0, "peak_rss_mb": peak, "setup_s": 0.15}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    argv = [str(tmp_path), str(root), "--workload", "box-submission", "mask-submission", "--pairs", "3"]
    assert bench_pairs.main([*argv, "--json", str(out)]) == 0
    assert [w for _, w in calls] == ["box-submission"] * 6 + ["mask-submission"] * 6
    document = json.loads(out.read_text())
    assert set(document["machine"]) == {"python", "numpy", "nproc"}
    assert document["machine"]["nproc"] >= 1
    assert list(document["workloads"]) == ["box-submission", "mask-submission"]
    for summary in document["workloads"].values():
        assert summary["pairs"] == 3 and summary["failed"] == 0
        assert set(summary["metrics"]) == {"rows_per_s", "peak_rss_mb", "setup_s"}
        peak = summary["metrics"]["peak_rss_mb"]
        assert len(peak["pairs"]) == 3
        assert all(p["parent"] - p["change"] > 0.9 for p in peak["pairs"])
        assert peak["parent"]["q1"] <= peak["parent"]["median"] <= peak["parent"]["q3"]
        assert peak["change"]["median"] < peak["parent"]["median"] - 0.9
        assert (peak["better"], peak["bound"], peak["change_wins"]) == ("lower", 0.05, 3)
        assert (peak["gain"], peak["regression"]) == ("holds", "within bound")
        rows = summary["metrics"]["rows_per_s"]
        assert (rows["gain"], rows["regression"], rows["change_wins"]) == ("not shown", "within bound", 0)


def test_a_regressed_metric_fails_and_still_writes_the_json(tmp_path, monkeypatch):
    root = SCRIPT.parent.parent

    def run_once(checkout, workload):
        peak = 40.0 if checkout == root else 35.0
        return {"failed": 0, "values": {"rows_per_s": 1800.0, "peak_rss_mb": peak, "setup_s": 0.15}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    argv = [str(tmp_path), str(root), "--workload", "mask-submission", "--pairs", "2", "--json", str(out)]
    assert bench_pairs.main(argv) == 1
    metrics = json.loads(out.read_text())["workloads"]["mask-submission"]["metrics"]
    assert metrics["peak_rss_mb"]["regression"] == "regressed"
