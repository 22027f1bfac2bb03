"""Per-layer metrics derived from the traced run's spans.

LAYERS declares every per-layer metric once: name (``<module>.<function>.
<quantity>``), unit, and the end-to-end metric it is expected to move on
which workload.  BENCHMARK.json's ``per_layer`` list is checked against it.
"""

from __future__ import annotations

from collections import defaultdict

BOX, MASK, EXPERT = "box-submission", "mask-submission", "expert-training"


def _moves(metric: str, *workloads: str) -> str:
    return f"{metric} on {', '.join(workloads)}"


_PARSE = _moves("rows_per_s and peak_rss_mb", BOX, EXPERT)
_CLI = _moves("rows_per_s", BOX)
_EXPERT = _moves("rows_per_s", EXPERT)

# (name, unit, moves); every metric is better when lower.
LAYERS: list[tuple[str, str, str]] = [
    ("cli.pipeline.wall_s", "s", _moves("rows_per_s", BOX, MASK, EXPERT)),
    ("cli.pipeline.cpu_s", "s", _moves("rows_per_s", BOX, MASK, EXPERT)),
    ("cli.intermediate_bytes", "B", _CLI),
    ("cli.self_s", "s", _CLI),
    ("fileio.parse_predictions.s", "s", _PARSE),
    ("fileio.parse_predictions.rows", "count", _PARSE),
    ("fileio.parse_predictions.peak_rss_b_per_row", "B/row", _PARSE),
    ("fileio.write_predictions.s", "s", _PARSE),
    ("fileio.write_predictions.bytes", "B", _PARSE),
    ("fileio.parse_ground_truth.s", "s", _PARSE),
    ("fileio.parse_verification.s", "s", _PARSE),
    ("fileio.parse_roi_pool.s", "s", _EXPERT),
    ("fileio.parse_roi_pool.rows", "count", _EXPERT),
    ("fileio.write_roi_pool.s", "s", _EXPERT),
    ("fileio.write_label_matrix.s", "s", _EXPERT),
    ("fileio.parse_label_matrix.s", "s", _EXPERT),
    ("fileio.parse_logit_matrix.s", "s", _EXPERT),
    ("geometry.box_iou.ns_per_call", "ns", _CLI),
    ("geometry.mask_decode.ms_per_mask", "ms", _moves("rows_per_s", MASK)),
    ("geometry.mask_encode.ms_per_mask", "ms", _moves("rows_per_s", MASK)),
    ("ensemble.nms.s", "s", _CLI),
    ("ensemble.nms.rows_in", "count", _CLI),
    ("ensemble.nms.suppressed", "count", _CLI),
    ("ensemble.group_predictions.s", "s", _CLI),
    ("ensemble.group_predictions.groups", "count", _CLI),
    ("ensemble.group_predictions.mean_members", "count", _CLI),
    ("ensemble.fuse_group.s", "s", _moves("rows_per_s and peak_rss_mb", MASK)),
    ("ensemble.fuse_group.ms_per_masked_group", "ms", _moves("rows_per_s and peak_rss_mb", MASK)),
    ("postprocess.drop_small_masks.s", "s", _CLI),
    ("postprocess.drop_small_masks.rows_in", "count", _CLI),
    ("postprocess.drop_small_masks.dropped", "count", _CLI),
    ("postprocess.trim_to_budget.s", "s", _CLI),
    ("postprocess.trim_to_budget.rows_in", "count", _CLI),
    ("postprocess.trim_to_budget.removed", "count", _CLI),
    ("evaluation.evaluate.s", "s", _moves("rows_per_s", BOX) + "; " + _moves("rows_per_s and peak_rss_mb", MASK)),
    ("evaluation.evaluate.self_s", "s", _moves("rows_per_s", BOX) + "; " + _moves("rows_per_s and peak_rss_mb", MASK)),
    ("evaluation.evaluate.categories", "count", _CLI),
    ("evaluation.evaluate.prediction_count", "count", _CLI),
    ("evaluation.evaluate.ignored", "count", _CLI),
    ("federated.expand_verification.s", "s", _EXPERT),
    ("federated.expand_verification.entries_in", "count", _EXPERT),
    ("federated.expand_verification.entries_out", "count", _EXPERT),
    ("federated.assign_rois.s", "s", _EXPERT),
    ("federated.assign_rois.rois", "count", _EXPERT),
    ("federated.build_label_matrix.s", "s", _EXPERT),
    ("federated.build_label_matrix.cells", "count", _EXPERT),
    ("federated.classification_loss.s", "s", _EXPERT),
    ("training.partition_pool.s", "s", _EXPERT),
    ("training.sample_rois.s", "s", _EXPERT),
    ("training.sample_rois.rois", "count", _EXPERT),
    ("experts.split_by_rank.s", "s", _EXPERT),
    ("experts.filter_for_expert.s", "s", _EXPERT),
    ("experts.restrict_predictions.s", "s", _EXPERT),
    ("experts.restrict_predictions.rows_in", "count", _EXPERT),
    ("experts.restrict_predictions.kept", "count", _EXPERT),
    ("trace.replay_s", "s", "none: the traced in-process pipeline's wall time"),
    ("trace.overhead_ratio", "ratio", "none: traced pipeline over the untraced child's wall time less set-up"),
]

UNITS = {name: unit for name, unit, _ in LAYERS}


def _duration(span: dict) -> float:
    return (span["end"] - span["start"]) / 1e9


def self_time(span: dict, children: list[dict]) -> float:
    """A span's duration minus the part of its interval its children cover."""
    covered = 0
    cursor = span["start"]
    for child in sorted(children, key=lambda c: c["start"]):
        lo, hi = max(child["start"], cursor), min(child["end"], span["end"])
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (span["end"] - span["start"] - covered) / 1e9


def derive(result: dict, pipeline: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run.  `result` is replay.py's JSON;
    `pipeline` holds wall_s and cpu_s of the untraced CLI child and setup_s,
    the set-up time measured next to it."""
    spans = result["spans"]
    by_name: dict[str, list[dict]] = defaultdict(list)
    children: dict[int, list[dict]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
        if span["parent"] is not None:
            children[span["parent"]].append(span)

    def seconds(name: str) -> float:
        return sum(_duration(s) for s in by_name[name])

    def count(name: str, key: str) -> int:
        return sum(s.get(key, 0) for s in by_name[name])

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def per_call(name: str, scale: float) -> float:
        return ratio(count(name, "median_pass_ns") * scale, count(name, "calls"))

    replay_s = seconds("cli.run")
    first = result["first_parse"]
    m: dict[str, float] = {
        "cli.pipeline.wall_s": pipeline["wall_s"],
        "cli.pipeline.cpu_s": pipeline["cpu_s"],
        "cli.intermediate_bytes": result["intermediate_bytes"],
        "cli.self_s": sum(self_time(s, children[s["id"]]) for s in by_name["cli.run"]),
        "fileio.parse_predictions.peak_rss_b_per_row": ratio(first["rss_growth_b"], first["rows"]),
        "fileio.parse_predictions.rows": count("fileio.parse_predictions", "rows"),
        "fileio.write_predictions.bytes": count("fileio.write_predictions", "bytes"),
        "fileio.parse_roi_pool.rows": count("fileio.parse_roi_pool", "rows"),
        "geometry.box_iou.ns_per_call": per_call("geometry.box_iou", 1.0),
        "geometry.mask_decode.ms_per_mask": per_call("geometry.mask_decode", 1e-6),
        "geometry.mask_encode.ms_per_mask": per_call("geometry.mask_encode", 1e-6),
        "ensemble.group_predictions.mean_members": ratio(
            count("ensemble.group_predictions", "members"),
            count("ensemble.group_predictions", "groups"),
        ),
        "ensemble.fuse_group.ms_per_masked_group": ratio(
            sum(_duration(s) for s in by_name["ensemble.fuse_group"] if s["masked"]) * 1e3,
            count("ensemble.fuse_group", "masked"),
        ),
        # evaluate() expands the verification table itself; a standalone
        # expansion on the same inputs stands in for that inner call.
        "evaluation.evaluate.self_s": seconds("evaluation.evaluate")
        - seconds("standalone.federated.expand_verification"),
        "trace.replay_s": replay_s,
        # The child's wall time includes interpreter start and imports, which
        # the in-process span leaves out.
        "trace.overhead_ratio": ratio(replay_s, pipeline["wall_s"] - pipeline["setup_s"]),
    }
    for name, _, _ in LAYERS:
        if name in m:
            continue
        function, quantity = name.rsplit(".", 1)
        m[name] = seconds(function) if quantity == "s" else count(function, quantity)
    return m
