#!/usr/bin/env python3
"""Regenerate the committed pipeline fixture under tests/fixtures/pipeline/.

The fixture is a small two-model masked-prediction world wired through the
full submission chain (ensemble -> drop-small-masks -> trim -> eval).  The
trim budget is chosen so that exactly one prediction is removed; everything
in the fixture is deterministic, so the files only change if the formats do.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from detpipe import (
    Box,
    GroundTruthInstance,
    Hierarchy,
    Prediction,
    VerificationTable,
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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out-dir",
        default=str(Path(__file__).resolve().parents[1] / "tests/fixtures/pipeline"),
    )
    args = parser.parse_args()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, data in build().items():
        (out_dir / name).write_bytes(data)
        print(f"wrote {out_dir / name} ({len(data)} bytes)")


if __name__ == "__main__":
    main()
