"""detpipe benchmark: seeded workloads through ``detpipe pipeline``, timed end
to end and per layer, with every output checked.

Run from the root of a detpipe checkout:

    python3 detbench/run.py                 # every workload, untraced then traced
    python3 detbench/run.py --workload box-submission --seed 3 --seconds 20 --trace 0

The load is a closed loop with one client: one ``detpipe pipeline`` child at
a time, single-threaded at the default ``--threads``, on the workload's fixed
input.  ``--trace 0`` measures the end-to-end metrics (rows_per_s,
peak_rss_mb, setup_s); ``--trace 1`` runs the pipeline again in a separate
traced process (detbench/replay.py) and derives the per-layer metrics from
its spans.  A run
fails when the child exits non-zero or its outputs fail the output check;
error_rate is failed / attempted.  The last line of standard output is one
JSON object with correct, attempted, failed and metrics; the exit status is
1 when any run failed.

Inputs are generated per seed under .detbench/ in the checkout and reused
while detbench/workloads.py is unchanged.
``--record`` re-records detbench/recorded.json (output digests at the default
seed, input sizes, the recording machine) from the current code.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
RECORDED = HERE / "recorded.json"
DEFAULT_SEED = 0
DEFAULT_SECONDS = 30
# Fewest samples a run reports a median of, however short --seconds is.
MIN_SAMPLES = 3
# Set-up spawns before measuring, and per pipeline run while measuring.
SETUP_WARMUPS = 3
SETUP_BURST = 4
# Run-directory files that are not pipeline outputs: the manifest records
# absolute paths.
NOT_OUTPUTS = {"manifest.json"}

END_TO_END_UNITS = {"rows_per_s": "rows/s", "peak_rss_mb": "MB", "setup_s": "s"}


class Bench:
    """Paths and child-process plumbing for one checkout; close() stops the
    launcher process."""

    def __init__(self, root: Path):
        self.root = root
        self.work = root / ".detbench"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        spec = importlib.util.spec_from_file_location("oracles", root / "tests" / "oracles.py")
        self.oracles = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.oracles)
        self.recorded = json.loads(RECORDED.read_text()) if RECORDED.exists() else {}

    def expected_digests(self, workload: str, seed: int) -> dict[str, str] | None:
        """Recorded output digests, which hold at the recorded seed only."""
        if seed != self.recorded.get("seed"):
            return None
        return self.recorded.get("digests", {}).get(workload)

    def inputs(self, workload: str, seed: int) -> tuple[Path, int]:
        """The workload's pipeline config for a seed and its input rows; the
        inputs are generated on first use, keyed by seed and generator source."""
        generator = hashlib.sha256(Path(workloads.__file__).read_bytes()).hexdigest()[:12]
        directory = self.work / "inputs" / workload / f"seed-{seed}-{generator}"
        marker = directory / "ROWS"
        if not marker.exists():
            files = workloads.generate(workload, seed)
            partial = directory.with_name(directory.name + ".partial")
            shutil.rmtree(partial, ignore_errors=True)
            partial.mkdir(parents=True)
            for name, data in files.items():
                (partial / name).write_bytes(data)
            (partial / "ROWS").write_text(str(workloads.input_rows(files)))
            shutil.rmtree(directory, ignore_errors=True)
            partial.rename(directory)
        return directory / "config.ini", int(marker.read_text())

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()

    def spawn(self, argv: list[str], stdout: Path, stderr: Path) -> dict:
        """Run a child to completion through the launcher: exit status, wall
        time from spawn to exit, and the child's own CPU time and peak RSS."""
        request = {"argv": argv, "cwd": str(self.root), "env": self.env, "stdout": str(stdout), "stderr": str(stderr)}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise SystemExit("the child launcher exited")
        child = json.loads(reply)
        child["rss_mb"] = child.pop("maxrss_kib") * 1024 / 1e6
        return child

    def setup_times(self, spawns: int) -> list[float]:
        """Wall times of `spawns` fresh `detpipe --help` children."""
        scratch = self.work / "scratch"
        scratch.mkdir(parents=True, exist_ok=True)
        argv = [sys.executable, "-m", "detpipe.cli", "--help"]
        times = []
        for _ in range(spawns):
            child = self.spawn(argv, scratch / "help.out", scratch / "help.err")
            if child["status"] != 0:
                raise SystemExit(f"detpipe --help exited with {child['status']}")
            times.append(child["wall_s"])
        return times

    def pipeline(self, config: Path, run_dir: Path) -> dict:
        """One untraced `detpipe pipeline` child into a fresh run directory;
        its standard output is kept as the run's stdout.txt."""
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        argv = [sys.executable, "-m", "detpipe.cli", "pipeline", "--config", str(config), "--run-dir", str(run_dir)]
        return self.spawn(argv, run_dir / "stdout.txt", run_dir.with_name(run_dir.name + ".stderr"))

    def replay(self, config: Path, run_dir: Path, run_id: str) -> dict:
        """The traced pipeline run in a fresh process: its result JSON, or {}
        when it failed."""
        shutil.rmtree(run_dir, ignore_errors=True)
        result = run_dir.with_name(run_dir.name + ".json")
        argv = [sys.executable, str(HERE / "replay.py"), str(config), str(run_dir), str(result), run_id]
        log = run_dir.with_name(run_dir.name + ".log")
        child = self.spawn(argv, log, log.with_suffix(".err"))
        if child["status"] != 0:
            return {}
        return json.loads(result.read_text())


# -- output checks -----------------------------------------------------------------


def outputs(run_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(run_dir.iterdir()) if p.name not in NOT_OUTPUTS}


def digests(files: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}


def check_outputs(bench: Bench, workload: str, files: dict[str, bytes], expected: dict | None) -> list[str]:
    """Problems with one pipeline run's outputs; empty when they pass.
    `expected` maps output names to SHA-256 digests, when they are known."""
    try:
        problems = _check_invariants(bench, workload, files)
    except (KeyError, ValueError) as exc:
        problems = [f"missing or malformed output: {exc!r}"]
    if expected is not None:
        actual = digests(files)
        for name in sorted(set(expected) | set(actual)):
            if expected.get(name) != actual.get(name):
                problems.append(f"{name}: digest differs from the recorded one")
    return problems


def _check_invariants(bench: Bench, workload: str, files: dict[str, bytes]) -> list[str]:
    """Checks that hold on any seed: the trimmed file matches its report and
    fits the budget; fused boxes of one stratum overlap below the threshold,
    by the package-independent IoU in tests/oracles.py."""
    problems = []
    if workload != "expert-training":
        summary = {}
        for line in files["trim_report.csv"].decode().splitlines()[1:]:
            kind, key, value = line.split(",")
            if kind == "summary":
                summary[key] = int(value)
        size = len(files["trimmed.csv"])
        if size != summary["final_bytes"] or size > summary["budget"]:
            problems.append(f"trimmed.csv is {size} bytes; trim report says {summary}")
    strata: dict[tuple[str, str], list[tuple]] = {}
    for line in files["ensembled.csv"].decode().splitlines()[1:]:
        parts = line.split(",", 7)
        box = tuple(float(v) for v in parts[3:7])
        strata.setdefault((parts[0], parts[1]), []).append(box)
    for key, boxes in strata.items():
        for i, a in enumerate(boxes):
            for b in boxes[i + 1 :]:
                if bench.oracles.iou_ref(a, b) >= workloads.IOU:
                    problems.append(f"fused boxes {a} and {b} in stratum {key} overlap")
    return problems


def checked_pipeline(bench: Bench, workload: str, config: Path, run_dir: Path, expected: dict | None):
    """One pipeline run and its outputs, with the problems found in them."""
    run = bench.pipeline(config, run_dir)
    if run["status"]:
        return run, {}, [f"exit status {run['status']}"]
    files = outputs(run_dir)
    return run, files, check_outputs(bench, workload, files, expected)


def compare_dirs(expected: dict[str, bytes], actual: dict[str, bytes], what: str) -> list[str]:
    if expected == actual:
        return []
    differing = sorted(n for n in set(expected) | set(actual) if expected.get(n) != actual.get(n))
    return [f"{what} differs from the CLI run in {', '.join(differing)}"]


# -- measurement -------------------------------------------------------------------


def measure_end_to_end(bench: Bench, workload: str, seed: int, seconds: float) -> dict:
    """Alternate a burst of set-up spawns and a pipeline run until the time is
    up; report medians."""
    config, rows = bench.inputs(workload, seed)
    expected = bench.expected_digests(workload, seed)
    run_dir = bench.work / "runs" / workload
    # Warm-up: byte-compiles the package on a fresh checkout and fills the
    # page cache with the interpreter's and numpy's files.
    bench.setup_times(SETUP_WARMUPS)
    setups, runs, failures = [], [], []
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_SAMPLES or time.perf_counter() < deadline:
        setups.extend(bench.setup_times(SETUP_BURST))
        run, _, problems = checked_pipeline(bench, workload, config, run_dir / "cli", expected)
        runs.append(run)
        failures.append(problems)
    shutil.rmtree(run_dir, ignore_errors=True)
    return {
        "rows": rows,
        "samples": {
            "rows_per_s": [rows / r["wall_s"] for r in runs],
            "peak_rss_mb": [r["rss_mb"] for r in runs],
            "setup_s": setups,
        },
        "problems": failures,
    }


def measure_layers(bench: Bench, workload: str, seed: int, seconds: float) -> dict:
    """Set-up spawns, an untraced CLI child, then a traced run in a fresh
    process, until the time is up; the traced run's outputs must equal the
    child's byte for byte."""
    config, rows = bench.inputs(workload, seed)
    expected = bench.expected_digests(workload, seed)
    run_dir = bench.work / "runs" / workload
    bench.setup_times(SETUP_WARMUPS)
    samples: list[dict[str, float]] = []
    failures = []
    deadline = time.perf_counter() + seconds
    while not failures or time.perf_counter() < deadline:
        setup_s = statistics.median(bench.setup_times(SETUP_BURST))
        run, files, problems = checked_pipeline(bench, workload, config, run_dir / "cli", expected)
        result = bench.replay(config, run_dir / "traced", f"{workload}-seed{seed}-{len(failures)}")
        if not result:
            problems.append("the traced run failed")
        elif files:
            problems += compare_dirs(files, outputs(run_dir / "traced"), "the traced run")
        failures.append(problems)
        if result:
            samples.append(layers.derive(result, {**run, "setup_s": setup_s}))
    shutil.rmtree(run_dir, ignore_errors=True)
    return {
        "rows": rows,
        "samples": {name: [s[name] for s in samples] for name, _, _ in layers.LAYERS},
        "problems": failures,
    }


# -- reporting ---------------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(workload: str, seed: int, traced: bool, measured: dict) -> dict:
    """Print one workload's figures; return its metrics as name -> value/unit."""
    samples = measured["samples"]
    problems = measured["problems"]
    failed = sum(1 for p in problems if p)
    kind = "per layer, traced runs" if traced else "end to end, untraced runs"
    print(f"== {workload}  seed {seed}  {measured['rows']} input rows  ({kind})")
    metrics = {}
    if traced:
        module = None
        for name, unit, moves in layers.LAYERS:
            if name.split(".")[0] != module:
                module = name.split(".")[0]
                print(f"  [{module}]")
            value = statistics.median(samples[name]) if samples[name] else 0.0
            metrics[name] = {"value": value, "unit": unit}
            print(f"    {name:<46} {_fmt(value):>12} {unit:<6} -> {moves}")
        print(f"  median of {len(problems)} traced runs")
    else:
        for name, unit in END_TO_END_UNITS.items():
            values = samples[name]
            value = statistics.median(values)
            metrics[name] = {"value": value, "unit": unit}
            print(
                f"  {name:<12} {_fmt(value):>12} {unit:<7} median of {len(values)}, "
                f"range {_fmt(min(values))} .. {_fmt(max(values))}"
            )
        print(f"  {'error_rate':<12} {_fmt(failed / len(problems)):>12} {'ratio':<7} {failed} of {len(problems)} runs failed")
    for index, found in enumerate(problems):
        for problem in found[:5]:
            print(f"  run {index} FAILED: {problem}")
    return {"metrics": metrics, "attempted": len(problems), "failed": failed}


def record(bench: Bench) -> None:
    """Re-record digests at the default seed, input sizes and the machine."""
    result = {
        "seed": DEFAULT_SEED,
        "machine": {
            "python": platform.python_version(),
            "numpy": workloads.np.__version__,
            "nproc": os.cpu_count(),
        },
        "workloads": {},
        "digests": {},
    }
    for workload in workloads.WORKLOADS:
        config, rows = bench.inputs(workload, DEFAULT_SEED)
        run_dir = bench.work / "runs" / workload / "record"
        _, files, problems = checked_pipeline(bench, workload, config, run_dir, None)
        if problems:
            raise SystemExit(f"{workload}: not recording failing outputs: {problems}")
        result["workloads"][workload] = {"input_rows": rows}
        result["digests"][workload] = digests(files)
        shutil.rmtree(run_dir)
    RECORDED.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"recorded {RECORDED.relative_to(bench.root)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), help="default: untraced, then traced")
    parser.add_argument("--record", action="store_true", help="re-record detbench/recorded.json")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "detpipe" / "cli.py").is_file() or not (root / "tests" / "oracles.py").is_file():
        print("run from the root of a detpipe checkout (src/detpipe and tests/oracles.py)", file=sys.stderr)
        return 2
    bench = Bench(root)
    try:
        return benchmark(bench, args)
    finally:
        bench.close()


def benchmark(bench: Bench, args: argparse.Namespace) -> int:
    if args.record:
        record(bench)
        return 0

    chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    modes = (False, True) if args.trace is None else (bool(args.trace),)
    summaries = []
    for workload in chosen:
        for traced in modes:
            measure = measure_layers if traced else measure_end_to_end
            measured = measure(bench, workload, args.seed, args.seconds)
            summaries.append((workload, report(workload, args.seed, traced, measured)))
    attempted = sum(s["attempted"] for _, s in summaries)
    failed = sum(s["failed"] for _, s in summaries)
    if len(summaries) == 1:
        metrics = summaries[0][1]["metrics"]
    else:
        metrics = {f"{w}/{n}": v for w, s in summaries for n, v in s["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
