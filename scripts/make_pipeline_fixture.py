#!/usr/bin/env python3
"""Regenerate the committed pipeline fixtures under tests/fixtures/.

``pipeline/`` is a small two-model masked-prediction world wired through the
full submission chain (ensemble -> drop-small-masks -> trim -> eval).  The
trim budget is chosen so that exactly one prediction is removed.

``expert_pipeline/`` is a small federated world (four images, a three-level
hierarchy, two rank experts) wired through the expert-training chain:
split-experts, filter-expert, restrict, ensemble, partition-pool,
sample-rois, assign and loss.  Its ``expected/`` directory holds the outputs
and the standard output of one pipeline run with the code the script runs
against, so a test can hold later code to them byte for byte; regenerate it
only when an output is meant to change.

Everything in the fixtures is deterministic, so the input files only change
if the formats do.  Run from the repository root:

    PYTHONPATH=src python3 scripts/make_pipeline_fixture.py
"""

from __future__ import annotations

import argparse
import contextlib
import io
import shutil
import tempfile
from pathlib import Path

import numpy as np

from detpipe import (
    Box,
    CategoryStats,
    GroundTruthInstance,
    Hierarchy,
    Prediction,
    Roi,
    RoiPool,
    VerificationTable,
    cli,
    drop_small_masks,
    ensemble,
    mask_encode,
)
from detpipe import fileio
from detpipe.fileio import serialized_size

IMAGE_SIDE = 100


def rect_mask(x0: int, y0: int, x1: int, y1: int):
    grid = np.zeros((IMAGE_SIDE, IMAGE_SIDE), dtype=np.uint8)
    grid[y0:y1, x0:x1] = 1
    return mask_encode(grid)


def build() -> dict[str, bytes]:
    preds_a = [
        Prediction("im1", "c1", 0.9, Box(10, 10, 60, 60), rect_mask(10, 10, 60, 60)),
        Prediction("im1", "c2", 0.95, Box(0, 0, 30, 30), rect_mask(0, 0, 40, 40)),
        Prediction("im1", "c2", 0.8, Box(20, 20, 80, 80), rect_mask(20, 20, 80, 80)),
        Prediction("im2", "c1", 0.7, Box(30, 30, 70, 70), rect_mask(30, 30, 70, 70)),
        Prediction("im2", "c1", 0.3, Box(5, 5, 40, 40), rect_mask(5, 5, 35, 35)),
    ]
    preds_b = [
        Prediction("im1", "c1", 0.85, Box(11, 11, 61, 61), rect_mask(11, 11, 61, 61)),
        Prediction("im1", "c2", 0.75, Box(21, 21, 79, 79), rect_mask(21, 21, 79, 79)),
        Prediction("im1", "c2", 0.15, Box(5, 55, 45, 100), rect_mask(5, 55, 45, 100)),
        Prediction("im2", "c1", 0.65, Box(31, 31, 71, 71), rect_mask(31, 31, 71, 71)),
        Prediction("im2", "c2", 0.2, Box(50, 50, 90, 90), rect_mask(50, 50, 90, 90)),
    ]
    gts = [
        GroundTruthInstance("im1", "c1", Box(10, 10, 60, 60)),
        GroundTruthInstance("im1", "c2", Box(20, 20, 80, 80)),
        GroundTruthInstance("im2", "c1", Box(30, 30, 70, 70)),
    ]
    verification = VerificationTable(
        {
            ("im1", "c1"): 1,
            ("im1", "c2"): 1,
            ("im2", "c1"): 1,
            ("im2", "c2"): -1,
        }
    )

    # Walk the first two stages to pick a budget that trims exactly one row:
    # the c2 prediction with the lowest score.
    fused = ensemble([preds_a, preds_b], 0.5)
    filtered = drop_small_masks(fused, 1600)
    victim = min(
        (p for p in filtered if p.category_id == "c2"), key=lambda p: p.score
    )
    budget = serialized_size([p for p in filtered if p is not victim])

    config = f"""# Full submission chain on the committed fixture.
[ensemble]
inputs = preds_a.csv preds_b.csv
iou-threshold = 0.5
out = ensembled.csv

[drop-small-masks]
in = ensembled.csv
min-area = 1600
out = filtered.csv

[trim]
in = filtered.csv
max-bytes = {budget}
out = trimmed.csv
report = trim_report.csv

[eval]
predictions = trimmed.csv
ground-truth = ground_truth.csv
verification = verification.csv
hierarchy = hierarchy.json
mode = box
iou-threshold = 0.5
out-report = eval_report.csv
"""
    return {
        "preds_a.csv": fileio.write_predictions(preds_a),
        "preds_b.csv": fileio.write_predictions(preds_b),
        "ground_truth.csv": fileio.write_ground_truth(gts),
        "verification.csv": fileio.write_verification(verification),
        "hierarchy.json": fileio.write_hierarchy(Hierarchy(())),
        "config.ini": config.encode("utf-8"),
    }


# The expert world: two roots, three mid-level categories, six leaves.
EXPERT_HIERARCHY = [
    ("mammal", "animal"),
    ("bird", "animal"),
    ("car", "vehicle"),
    ("cat", "mammal"),
    ("dog", "mammal"),
    ("owl", "bird"),
    ("duck", "bird"),
    ("sedan", "car"),
    ("truck", "car"),
]
EXPERT_LEAVES = ["cat", "dog", "owl", "duck", "sedan", "truck"]
EXPERT_IMAGES = ["im0", "im1", "im2", "im3"]
ROIS_PER_IMAGE = 6


def build_expert() -> dict[str, bytes]:
    rng = np.random.default_rng(2019)

    def box_near(box: Box, jitter: float) -> Box:
        dx0, dy0, dx1, dy1 = np.round(rng.uniform(-jitter, jitter, 4), 1).tolist()
        return Box(box.x_min + dx0, box.y_min + dy0, box.x_max + dx1, box.y_max + dy1)

    def random_box() -> Box:
        x, y = np.round(rng.uniform(0, 60, 2), 1).tolist()
        w, h = np.round(rng.uniform(10, 40, 2), 1).tolist()
        return Box(x, y, x + w, y + h)

    gts = [
        GroundTruthInstance("im0", "cat", Box(10.0, 10.0, 50.0, 50.0)),
        GroundTruthInstance("im0", "sedan", Box(55.0, 40.0, 95.0, 70.0)),
        GroundTruthInstance("im1", "owl", Box(20.0, 5.0, 45.0, 40.0)),
        GroundTruthInstance("im1", "dog", Box(50.0, 50.0, 90.0, 95.0)),
        GroundTruthInstance("im2", "duck", Box(5.0, 60.0, 35.0, 90.0)),
        GroundTruthInstance("im2", "cat", Box(40.0, 10.0, 80.0, 45.0)),
        GroundTruthInstance("im3", "truck", Box(0.0, 0.0, 70.0, 40.0)),
    ]
    entries = {(g.image_id, g.category_id): 1 for g in gts}
    # Negatives above the leaves, so hierarchy expansion adds entries.
    entries.update(
        {
            ("im0", "bird"): -1,
            ("im1", "vehicle"): -1,
            ("im2", "car"): -1,
            ("im3", "animal"): -1,
            ("im0", "dog"): -1,
            ("im2", "owl"): -1,
        }
    )
    # Images each leaf is annotated in.
    counts = {leaf: 0 for leaf in EXPERT_LEAVES}
    for _, category_id in {(g.image_id, g.category_id) for g in gts}:
        counts[category_id] += 1

    def score(low: float, high: float) -> float:
        return round(float(rng.uniform(low, high)), 3)

    def model() -> list[Prediction]:
        out = [
            Prediction(g.image_id, g.category_id, score(0.5, 1.0), box_near(g.box, 3.0))
            for g in gts
        ]
        for image_id in EXPERT_IMAGES:
            category_id = EXPERT_LEAVES[int(rng.integers(len(EXPERT_LEAVES)))]
            out.append(Prediction(image_id, category_id, score(0.0, 0.5), random_box()))
        return out

    pool = {}
    for image_id in EXPERT_IMAGES:
        own = [g.box for g in gts if g.image_id == image_id]
        boxes = [box_near(own[i % len(own)], 4.0) for i in range(3)]
        boxes += [random_box() for _ in range(ROIS_PER_IMAGE - 3)]
        order = rng.permutation(ROIS_PER_IMAGE).tolist()
        scores = np.round(rng.uniform(0, 1, ROIS_PER_IMAGE), 3).tolist()
        # Some RoIs carry no objectness score.
        pool[image_id] = tuple(
            Roi(boxes[i], None if i == 4 else scores[i]) for i in order
        )
    categories = sorted({c for edge in EXPERT_HIERARCHY for c in edge})
    # Partition 0 of 2 holds every other RoI: half of each image's pool.
    logits = {
        image_id: np.round(rng.normal(0.0, 3.0, (ROIS_PER_IMAGE // 2, len(categories))), 3)
        for image_id in ("im0", "im2")
    }

    sections = [
        "# Expert-training chain on the committed fixture.\n"
        "[split-experts]\nby = rank\nstats = stats.csv\nstart-rank = 0\n"
        f"end-rank = {len(EXPERT_LEAVES)}\nnum-experts = 2\nout = groups.csv\n"
    ]
    for e in range(2):
        sections.append(
            f"[filter-expert.{e}]\nground-truth = ground_truth.csv\n"
            f"verification = verification.csv\ngroup-file = groups.csv\ngroup-index = {e}\n"
            f"out-ground-truth = expert_{e}_gt.csv\n"
            f"out-verification = expert_{e}_verification.csv\n"
            f"out-images = expert_{e}_images.csv\n"
        )
        sections.append(
            f"[restrict.{e}]\nin = expert_{e}.csv\ngroup-file = groups.csv\n"
            f"group-index = {e}\nout = restricted_{e}.csv\n"
        )
    sections.append(
        "[ensemble]\ninputs = restricted_0.csv restricted_1.csv\n"
        "iou-threshold = 0.5\nout = ensembled.csv\n"
    )
    sections.append("[partition-pool]\nrois = rois.csv\nk = 2\nout-prefix = part_\n")
    sections.append(
        "[sample-rois]\nrois = part_0.csv\nground-truth = ground_truth.csv\nn-sample = 2\n"
        "fg-fraction = 0.5\nfg-iou-threshold = 0.5\nseed = 3\nout = sampled.csv\n"
    )
    for image_id in logits:
        sections.append(
            f"[assign.{image_id}]\nimage-id = {image_id}\nrois = part_0.csv\n"
            "ground-truth = ground_truth.csv\nverification = verification.csv\n"
            "hierarchy = hierarchy.json\ncategories = categories.csv\n"
            f"iou-threshold = 0.5\nout = labels_{image_id}.csv\n"
        )
        sections.append(
            f"[loss.{image_id}]\nlabels = labels_{image_id}.csv\n"
            f"logits = logits_{image_id}.csv\n"
        )
    files = {
        "hierarchy.json": fileio.write_hierarchy(Hierarchy(EXPERT_HIERARCHY)),
        "ground_truth.csv": fileio.write_ground_truth(gts),
        "verification.csv": fileio.write_verification(VerificationTable(entries)),
        "stats.csv": fileio.write_category_stats(CategoryStats(counts)),
        "categories.csv": fileio.write_category_list(categories),
        "expert_0.csv": fileio.write_predictions(model()),
        "expert_1.csv": fileio.write_predictions(model()),
        "rois.csv": fileio.write_roi_pool(RoiPool(pool)),
        "config.ini": "\n".join(sections).encode("utf-8"),
    }
    for image_id, values in logits.items():
        files[f"logits_{image_id}.csv"] = fileio.write_logit_matrix(values, categories)
    return files


def expected_outputs(fixture: Path) -> dict[str, bytes]:
    """The outputs, and as stdout.txt the standard output, of one pipeline
    run of the fixture's config with the code this script runs against."""
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp) / "run"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.run(
                ["pipeline", "--config", str(fixture / "config.ini"), "--run-dir", str(run_dir)]
            )
        if code != 0:
            raise SystemExit(f"pipeline on {fixture} exited {code}")
        out = {
            path.name: path.read_bytes()
            for path in sorted(run_dir.iterdir())
            if path.name != "manifest.json"
        }
    out["stdout.txt"] = stdout.getvalue().encode("utf-8")
    return out


def write_files(out_dir: Path, files: dict[str, bytes]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (out_dir / name).write_bytes(data)
        print(f"wrote {out_dir / name} ({len(data)} bytes)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fixtures-dir",
        default=str(Path(__file__).resolve().parents[1] / "tests/fixtures"),
    )
    args = parser.parse_args()
    fixtures = Path(args.fixtures_dir)
    write_files(fixtures / "pipeline", build())
    expert = fixtures / "expert_pipeline"
    write_files(expert, build_expert())
    shutil.rmtree(expert / "expected", ignore_errors=True)
    write_files(expert / "expected", expected_outputs(expert))


if __name__ == "__main__":
    main()
