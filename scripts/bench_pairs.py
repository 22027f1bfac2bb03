"""Compare two detpipe checkouts on the benchmark's end-to-end metrics, in
alternating pairs of runs.

Usage:

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N

Each pair runs ``python3 detbench/run.py --workload W --trace 0`` once in
each checkout, from the checkout's root, with the benchmark's own run
length.  The side that runs first alternates: the parent in odd pairs, the
change in even ones.  For each end-to-end metric that CHANGE_DIR's
BENCHMARK.json declares, the script prints every pair, each side's median
and quartiles, and how many pairs the change won, ties counting for
neither.  A gain holds when the change wins at least nine tenths of the
pairs and its median beats the parent's by more than the distance between
the parent's quartiles.

Each metric also gets a no-regression verdict against its ``bound``, a
fraction of the parent's median.  It is "regressed" when the change's
median is worse than the parent's by more than that margin; "unresolved"
when the parent's quartile spread is wider than the margin and not every
change run beats every parent run, so the pairs cannot tell; and "within
bound" otherwise.  Python runs the benchmark with ``-B``, so the
benchmark's own modules leave no bytecode under ``detbench/``; the
pipelines it spawns are unaffected.  The script writes nothing itself; it
exits 1 when a run fails or reports failed operations, or when a metric
regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str) -> dict:
    """The metrics of one benchmark run in checkout, and its failed count."""
    argv = [sys.executable, "-B", "detbench/run.py", "--workload", workload, "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{checkout}: no output (exit {done.returncode}): {done.stderr[-2000:]}")
    summary = json.loads(lines[-1])
    return {
        "failed": summary["failed"],
        "values": {name: metric["value"] for name, metric in summary["metrics"].items()},
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def regression_verdict(higher_is_better: bool, bound: float, pairs: list[tuple[float, float]]) -> str:
    """"regressed", "unresolved" or "within bound": the change's median
    against the parent's, with a margin of bound times the parent's
    median."""
    parents, changes = [p for p, _ in pairs], [c for _, c in pairs]
    (q1, median, q3), change = quartiles(parents), quartiles(changes)[1]
    margin = bound * abs(median)
    loss = median - change if higher_is_better else change - median
    if loss > margin:
        return "regressed"
    beats_all = min(changes) > max(parents) if higher_is_better else max(changes) < min(parents)
    if q3 - q1 > margin and not beats_all:
        return "unresolved"
    return "within bound"


def summarize(name: str, higher_is_better: bool, pairs: list[tuple[float, float]]) -> bool:
    """Print one metric's pairs and gain verdict; True when the change's
    gain holds."""
    print(f"== {name} ({'higher' if higher_is_better else 'lower'} is better)")
    wins = 0
    for index, (parent, change) in enumerate(pairs, start=1):
        gain = change - parent if higher_is_better else parent - change
        wins += gain > 0
        verdict = "change" if gain > 0 else "parent" if gain < 0 else "tie"
        print(f"  pair {index:>2}  parent {parent:>12.6g}  change {change:>12.6g}  better: {verdict}")
    parent_q, change_q = quartiles([p for p, _ in pairs]), quartiles([c for _, c in pairs])
    for side, (q1, median, q3) in (("parent", parent_q), ("change", change_q)):
        print(f"  {side:<6}  median {median:.6g}  quartiles {q1:.6g} .. {q3:.6g}")
    spread = parent_q[2] - parent_q[0]
    lead = change_q[1] - parent_q[1] if higher_is_better else parent_q[1] - change_q[1]
    holds = wins * 10 >= 9 * len(pairs) and lead > spread
    print(
        f"  change wins {wins} of {len(pairs)}; median lead {lead:.6g} against the parent's "
        f"quartile spread {spread:.6g}: gain {'holds' if holds else 'not shown'}"
    )
    return holds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    declared = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]

    runs: list[dict[str, dict]] = []
    for index in range(args.pairs):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            pair[side] = run_once(getattr(args, side), args.workload)
        runs.append(pair)
        print(f"pair {index + 1} of {args.pairs} done, {order[0]} first", flush=True)

    failed = sum(pair[side]["failed"] for pair in runs for side in pair)
    print(f"workload {args.workload}, {args.pairs} pairs, failed operations: {failed}")
    regressed = False
    for metric in declared:
        name = metric["name"]
        pairs = [(pair["parent"]["values"][name], pair["change"]["values"][name]) for pair in runs]
        summarize(name, metric["better"] == "higher", pairs)
        verdict = regression_verdict(metric["better"] == "higher", metric["bound"], pairs)
        regressed |= verdict == "regressed"
        print(f"  no-regression verdict, bound {metric['bound']:.0%} of the parent's median: {verdict}")
    return 1 if failed or regressed else 0


if __name__ == "__main__":
    sys.exit(main())
