"""Traced run of one pipeline config, in a fresh process.

The process runs ``detpipe pipeline`` in-process through ``detpipe.cli.run``
with every call from the CLI into another detpipe module wrapped in a span,
and with ``ensemble``'s own calls to nms, group_predictions and fuse_group
wrapped too, so each config stage shows as read bytes, ``fileio.parse_*``,
the core call(s), ``fileio.write_*`` and the write.  A span is a name,
start, end, parent span and run id, plus the counts recorded for it.  Spans
stay in memory and are written out as JSON when the run ends.  The CLI's
own time is the self time of the ``cli.run`` span.

Last, the process times the geometry kernels and a standalone hierarchy
expansion on the workload's own data.

Usage: python3 detbench/replay.py CONFIG RUN_DIR RESULT_JSON RUN_ID
(with the package importable, e.g. PYTHONPATH=src).
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import json
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from detpipe import cli, fileio
from detpipe.federated import expand_verification
from detpipe.geometry import box_iou, mask_decode, mask_encode

# The module, not the function detpipe re-exports under the same name.
ensemble = importlib.import_module("detpipe.ensemble")

# box_iou calls per timed pass, timed passes per kernel, and masks timed
# (each decoded 1024x768 raster is held in memory during the pass).
IOU_CALLS = 50_000
KERNEL_PASSES = 5
KERNEL_MASKS = 24

# The config key that holds a predictions file, per stage.
PREDICTION_INPUTS = {
    "ensemble": "inputs",
    "nms": "in",
    "restrict": "in",
    "drop-small-masks": "in",
    "trim": "in",
    "eval": "predictions",
}

# Counts recorded on a span, from the call's positional arguments and result.
COUNTS = {
    "fileio.parse_predictions": lambda a, r: {"rows": len(r)},
    "fileio.write_predictions": lambda a, r: {"bytes": len(r)},
    "fileio.parse_roi_pool": lambda a, r: {"rows": sum(len(v) for v in r.images.values())},
    "ensemble.nms": lambda a, r: {"rows_in": len(a[0]), "suppressed": len(a[0]) - len(r)},
    "ensemble.group_predictions": lambda a, r: {"groups": len(r), "members": len(a[0])},
    "ensemble.fuse_group": lambda a, r: {"masked": int(r.mask is not None)},
    "postprocess.drop_small_masks": lambda a, r: {"rows_in": len(a[0]), "dropped": len(a[0]) - len(r)},
    "postprocess.trim_to_budget": lambda a, r: {"rows_in": len(a[0]), "removed": r[1].total_removed},
    "evaluation.evaluate": lambda a, r: {
        "categories": len(r.results),
        "prediction_count": sum(c.prediction_count for c in r.results),
        "ignored": sum(c.ignored_count for c in r.results),
    },
    "federated.expand_verification": lambda a, r: {"entries_in": len(a[0]), "entries_out": len(r)},
    "federated.assign_rois": lambda a, r: {"rois": len(r)},
    "federated.build_label_matrix": lambda a, r: {"cells": int(r.values.size)},
    "training.sample_rois": lambda a, r: {"rois": len(r)},
    "experts.restrict_predictions": lambda a, r: {"rows_in": len(a[0]), "kept": len(r)},
}


class Tracer:
    """In-memory span recorder.  A span is a flat dict: id, name, parent,
    run, start and end (perf_counter_ns), plus its counts.  Flat dicts of
    plain values are not tracked by the garbage collector, so thousands of
    spans do not slow the collections the traced code pays."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter_ns()
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span with the counts COUNTS
        declares for `name`."""
        span = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(span)
        if name in COUNTS:
            span.update(COUNTS[name](args, result))
        return result


@contextlib.contextmanager
def traced_cli(tracer: Tracer, run_dir: Path, reads: dict):
    """Point detpipe.cli's references to the other detpipe modules, and
    ensemble's references to its stages, at span-recording wrappers.
    reads["intermediate_bytes"] sums the bytes the CLI reads back from
    run_dir, i.e. what one stage wrote and a later one parsed again."""

    def wrap(name, fn):
        return lambda *args, **kwargs: tracer.call(name, fn, *args, **kwargs)

    def read_bytes(path: str) -> bytes:
        data = saved_cli["_read_bytes"](path)
        if Path(path).parent == run_dir:
            reads["intermediate_bytes"] += len(data)
        return data

    saved_cli, saved_ensemble = dict(vars(cli)), dict(vars(ensemble))
    cli.fileio = SimpleNamespace(
        **{
            name: wrap(f"fileio.{name}", obj) if inspect.isfunction(obj) else obj
            for name, obj in vars(fileio).items()
            if not name.startswith("_")
        }
    )
    cli._read_bytes = read_bytes
    for name, obj in saved_cli.items():
        module = getattr(obj, "__module__", "") or ""
        if inspect.isfunction(obj) and module.startswith("detpipe.") and module != cli.__name__:
            setattr(cli, name, wrap(f"{module.removeprefix('detpipe.')}.{name}", obj))
    for name in ("nms", "group_predictions", "fuse_group"):
        setattr(ensemble, name, wrap(f"ensemble.{name}", saved_ensemble[name]))
    try:
        yield
    finally:
        vars(cli).update(saved_cli)
        vars(ensemble).update(saved_ensemble)


def first_input(config_path: Path, run_dir: Path, keys: dict[str, str]) -> Path | None:
    """The first path a config section holds under keys[its stage], resolved
    as the pipeline resolves it: a stage's output in run_dir, else the
    config's directory.  None when no section has one."""
    for _, stage, options in cli._parse_config_sections(config_path.read_text()):
        if options.get(keys.get(stage)):
            raw = options[keys[stage]].split()[0]
            produced = run_dir / raw
            return produced if produced.exists() else config_path.parent / raw
    return None


def kernel_spans(tracer: Tracer, predictions: list) -> None:
    """Time box_iou on the same-stratum box pairs of one model's predictions
    and the mask codecs on its first masks, outside the pipeline.  Each
    kernel runs KERNEL_PASSES times and the median pass is kept."""
    strata: dict[tuple[str, str], list] = {}
    for p in predictions:
        strata.setdefault((p.image_id, p.category_id), []).append(p.box)
    pairs = [(a, b) for boxes in strata.values() for i, a in enumerate(boxes) for b in boxes[i + 1 :]]
    if pairs:
        pairs = pairs * -(-IOU_CALLS // len(pairs))
        _median_pass(tracer, "geometry.box_iou", lambda: [box_iou(a, b) for a, b in pairs], len(pairs))
    masks = [p.mask for p in predictions if p.mask is not None][:KERNEL_MASKS]
    if masks:
        grids = [mask_decode(m) for m in masks]
        _median_pass(tracer, "geometry.mask_decode", lambda: [mask_decode(m) for m in masks], len(masks))
        _median_pass(tracer, "geometry.mask_encode", lambda: [mask_encode(g) for g in grids], len(grids))


def _median_pass(tracer: Tracer, name: str, run, calls: int) -> None:
    with tracer.span(name) as span:
        passes = []
        for _ in range(KERNEL_PASSES):
            start = time.perf_counter_ns()
            run()
            passes.append(time.perf_counter_ns() - start)
    span["calls"] = calls
    span["median_pass_ns"] = sorted(passes)[len(passes) // 2]


def main(argv: list[str]) -> None:
    config, run_dir, result_path, run_id = argv
    config_path = Path(config)
    run_dir = Path(run_dir).resolve()

    # Peak-RSS growth of the first parse in this fresh process, bytes per row.
    predictions_input = first_input(config_path, run_dir, PREDICTION_INPUTS)
    if predictions_input is None:
        raise SystemExit("config has no predictions input")
    data = predictions_input.read_bytes()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rows = len(fileio.parse_predictions(data))
    growth = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) * 1024

    tracer = Tracer(f"{run_id}/cli")
    reads = {"intermediate_bytes": 0}
    stdout = io.StringIO()
    with traced_cli(tracer, run_dir, reads), contextlib.redirect_stdout(stdout):
        status = tracer.call("cli.run", cli.run, ["pipeline", "--config", str(config_path), "--run-dir", str(run_dir)])
    if status != 0:
        raise SystemExit(f"in-process pipeline exited with status {status}")
    (run_dir / "stdout.txt").write_text(stdout.getvalue())

    # evaluate() expands the verification table itself; a standalone
    # expansion on the same inputs stands in for that inner call.
    tracer.run_id = f"{run_id}/standalone"
    verification_input = first_input(config_path, run_dir, {"eval": "verification"})
    if verification_input is not None:
        verification = fileio.parse_verification(verification_input.read_bytes())
        hierarchy = fileio.parse_hierarchy(first_input(config_path, run_dir, {"eval": "hierarchy"}).read_bytes())
        with tracer.span("standalone.federated.expand_verification"):
            expand_verification(verification, hierarchy)
    kernel_spans(tracer, fileio.parse_predictions(data))

    result = {
        "run": run_id,
        "spans": tracer.spans,
        "intermediate_bytes": reads["intermediate_bytes"],
        "first_parse": {"rows": rows, "rss_growth_b": growth},
    }
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
