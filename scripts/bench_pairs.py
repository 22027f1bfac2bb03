"""Compare two detpipe checkouts on the benchmark's end-to-end metrics, in
alternating pairs of runs.

Usage:

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W [W ...] --pairs N [--json PATH]

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
pipelines it spawns are unaffected.  Several workloads are run one after
the other.  With ``--json PATH`` the script writes one JSON document: for
each workload its pairs, each side's median and quartiles and both
verdicts per metric, and the machine (Python and numpy versions, and the
CPUs the script may use).  It writes nothing else itself; it exits 1 when
a run fails or reports failed operations, or when a metric regressed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
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


def summarize(name: str, higher_is_better: bool, pairs: list[tuple[float, float]]) -> dict:
    """Print one metric's pairs and gain verdict; its summary: the pairs,
    each side's median and quartiles, the change's wins and whether its
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
    return {
        "better": "higher" if higher_is_better else "lower",
        "pairs": [{"parent": parent, "change": change} for parent, change in pairs],
        **{
            side: {"median": median, "q1": q1, "q3": q3}
            for side, (q1, median, q3) in (("parent", parent_q), ("change", change_q))
        },
        "change_wins": wins,
        "gain": "holds" if holds else "not shown",
    }


def machine() -> dict:
    """The Python and numpy that run the benchmark, and the CPUs this
    process may use."""
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def compare(parent: Path, change: Path, workload: str, n_pairs: int, declared: list[dict]) -> dict:
    """Run n_pairs alternating pairs of one workload and print each
    metric's verdicts; the workload's summary."""
    runs: list[dict[str, dict]] = []
    for index in range(n_pairs):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            pair[side] = run_once(parent if side == "parent" else change, workload)
        runs.append(pair)
        print(f"pair {index + 1} of {n_pairs} done, {order[0]} first", flush=True)

    failed = sum(pair[side]["failed"] for pair in runs for side in pair)
    print(f"workload {workload}, {n_pairs} pairs, failed operations: {failed}")
    metrics = {}
    for metric in declared:
        name = metric["name"]
        pairs = [(pair["parent"]["values"][name], pair["change"]["values"][name]) for pair in runs]
        metrics[name] = summarize(name, metric["better"] == "higher", pairs)
        verdict = regression_verdict(metric["better"] == "higher", metric["bound"], pairs)
        metrics[name].update(bound=metric["bound"], regression=verdict)
        print(f"  no-regression verdict, bound {metric['bound']:.0%} of the parent's median: {verdict}")
    return {"pairs": n_pairs, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, nargs="+", help="one or more workloads, run in turn")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--json", type=Path, help="also write every workload's pairs and verdicts here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    declared = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]

    workloads = {
        workload: compare(args.parent, args.change, workload, args.pairs, declared)
        for workload in args.workload
    }
    if args.json is not None:
        document = {"machine": machine(), "workloads": workloads}
        args.json.write_text(json.dumps(document, indent=2) + "\n")
    bad = any(
        summary["failed"] or any(m["regression"] == "regressed" for m in summary["metrics"].values())
        for summary in workloads.values()
    )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
