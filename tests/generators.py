"""Seeded random record generators shared by the unit and acceptance tests."""

from __future__ import annotations

import json

import numpy as np
from hypothesis import strategies as st

from detpipe import Box, GroundTruthInstance, Prediction, mask_encode


def random_box(rng: np.random.Generator, side: float = 100.0) -> Box:
    x0, y0 = rng.uniform(0, side * 0.7, size=2)
    w, h = rng.uniform(side * 0.05, side * 0.3, size=2)
    return Box(x0, y0, x0 + w, y0 + h)


# Corners on a small grid, so boxes tie on IoU, touch at an edge and have
# zero area; plus corners at +-1e308, whose widths overflow to infinity and
# give nan IoUs between two such boxes.
_CORNER = st.one_of(
    st.integers(0, 4).map(float),
    st.floats(0.0, 4.0),
    st.sampled_from([-1e308, 1e308]),
)


# A box whose area overflows to infinity: its IoU with itself is nan.
HUGE_BOX = Box(-1e308, -1e308, 1e308, 1e308)


@st.composite
def overlap_boxes(draw) -> Box:
    x = sorted((draw(_CORNER), draw(_CORNER)))
    y = sorted((draw(_CORNER), draw(_CORNER)))
    return Box(x[0], y[0], x[1], y[1])


def random_mask(rng: np.random.Generator, width: int, height: int):
    grid = (rng.uniform(size=(height, width)) < rng.uniform(0.2, 0.8)).astype(np.uint8)
    return mask_encode(grid)


def random_predictions(
    rng: np.random.Generator,
    n: int,
    n_images: int = 20,
    n_categories: int = 5,
    masked: bool = False,
    mask_size: tuple[int, int] = (16, 16),
) -> list[Prediction]:
    out = []
    for _ in range(n):
        mask = random_mask(rng, *mask_size) if masked else None
        out.append(
            Prediction(
                image_id=f"im{rng.integers(n_images):03d}",
                category_id=f"c{rng.integers(n_categories)}",
                score=float(rng.uniform(0.01, 0.99)),
                box=random_box(rng),
                mask=mask,
            )
        )
    return out


def random_ground_truth(
    rng: np.random.Generator,
    n: int,
    n_images: int = 20,
    n_categories: int = 5,
) -> list[GroundTruthInstance]:
    return [
        GroundTruthInstance(
            image_id=f"im{rng.integers(n_images):03d}",
            category_id=f"c{rng.integers(n_categories)}",
            box=random_box(rng),
        )
        for _ in range(n)
    ]


PREDICTIONS_HEADER = "image_id,category_id,score,x_min,y_min,x_max,y_max,mask_width,mask_height,mask_rle"
GROUND_TRUTH_HEADER = "image_id,category_id,x_min,y_min,x_max,y_max,mask_width,mask_height,mask_rle"


def box_submission(seed: int, scale: int, density: int = 1) -> dict[str, bytes]:
    """The files of a box-only submission pipeline, as name -> bytes:
    ground truth, verification and a three-level hierarchy over 500 leaf
    categories, two models of 17,000 * scale * density prediction rows each,
    and a config that runs ``ensemble``, ``drop-small-masks``, ``trim`` and
    ``eval``.  scale grows the images (1500 * scale, 4 ground truths each);
    density grows the predictions per image, as false positives, over the
    same images.  Written with numpy and string formatting, never through
    ``detpipe.fileio``."""
    rng = np.random.default_rng([seed, scale])
    n_images, per_image, n_fp = 1500 * scale, 4, (17000 * density - 12000) * scale
    leaves, files = _leaves_and_hierarchy()
    gt_images = np.repeat(np.arange(n_images), per_image)
    gt_cats = np.concatenate([rng.choice(500, per_image, replace=False) for _ in range(n_images)])
    corners = rng.uniform(2.0, 700.0, (len(gt_images), 2))
    gt_boxes = np.hstack([corners, corners + rng.uniform(24.0, 240.0, (len(gt_images), 2))])
    files["ground_truth.csv"] = _csv_file(
        GROUND_TRUTH_HEADER,
        [
            f"img{i:05d},{leaves[c]},{b[0]:.1f},{b[1]:.1f},{b[2]:.1f},{b[3]:.1f},,,"
            for i, c, b in zip(gt_images.tolist(), gt_cats.tolist(), gt_boxes.tolist())
        ],
    )
    files["verification.csv"] = _verification(rng, leaves, gt_images, gt_cats, n_images)
    for name in ("model_a.csv", "model_b.csv"):
        # Every ground truth twice, jittered, then false positives.
        images = np.concatenate([np.tile(gt_images, 2), rng.integers(0, n_images, n_fp)])
        cats = np.concatenate([np.tile(gt_cats, 2), rng.integers(0, 500, n_fp)])
        boxes = np.tile(gt_boxes, (2, 1)) + rng.normal(0.0, 3.0, (2 * len(gt_boxes), 4))
        corners = rng.uniform(2.0, 700.0, (n_fp, 2))
        false_boxes = np.hstack([corners, corners + rng.uniform(16.0, 200.0, (n_fp, 2))])
        boxes = np.vstack([boxes, false_boxes])
        boxes[:, 2:] = np.maximum(boxes[:, 2:], boxes[:, :2] + 4.0)
        scores = rng.uniform(0.01, 1.0, len(images))
        order = rng.permutation(len(images))
        rows = zip(*(column[order].tolist() for column in (images, cats, scores, boxes)))
        files[name] = _csv_file(
            PREDICTIONS_HEADER,
            [
                f"img{i:05d},{leaves[c]},{s:.4f},{b[0]:.1f},{b[1]:.1f},{b[2]:.1f},{b[3]:.1f},,,"
                for i, c, s, b in rows
            ],
        )
    files["config.ini"] = _pipeline_config(len(files["model_a.csv"]) // 2, "box")
    return files


def mask_submission(seed: int, scale: int) -> dict[str, bytes]:
    """The files of a mask submission pipeline at 1024x768, as name ->
    bytes, in box_submission's layout: 8 * scale images of 5 masked ground
    truths each, two models of 100 * scale masked prediction rows each
    (every ground truth twice, jittered, and 20 * scale false positives),
    and a config that runs ``ensemble``, ``drop-small-masks``, ``trim`` and
    ``eval`` in mask mode.  Each mask is its box's rectangle, two runs per
    covered image row.  Never written through ``detpipe.fileio``."""
    rng = np.random.default_rng([seed, scale])
    n_images, per_image, n_fp = 8 * scale, 5, 20 * scale
    leaves, files = _leaves_and_hierarchy()
    gt_images = np.repeat(np.arange(n_images), per_image)
    gt_cats = np.concatenate([rng.choice(500, per_image, replace=False) for _ in range(n_images)])
    gt_boxes = _frame_boxes(rng, len(gt_images), 60.0, 260.0)
    files["ground_truth.csv"] = _csv_file(
        GROUND_TRUTH_HEADER,
        [
            f"img{i:05d},{leaves[c]},{b[0]:.1f},{b[1]:.1f},{b[2]:.1f},{b[3]:.1f},{_rectangle(b)}"
            for i, c, b in zip(gt_images.tolist(), gt_cats.tolist(), gt_boxes.tolist())
        ],
    )
    files["verification.csv"] = _verification(rng, leaves, gt_images, gt_cats, n_images)
    for name in ("model_a.csv", "model_b.csv"):
        images = np.concatenate([np.tile(gt_images, 2), rng.integers(0, n_images, n_fp)])
        cats = np.concatenate([np.tile(gt_cats, 2), rng.integers(0, 500, n_fp)])
        jittered = np.tile(gt_boxes, (2, 1)) + rng.normal(0.0, 3.0, (2 * len(gt_boxes), 4))
        boxes = np.vstack([jittered, _frame_boxes(rng, n_fp, 20.0, 120.0)])
        boxes = np.clip(boxes, 1.0, [_WIDTH - 1, _HEIGHT - 1] * 2)
        boxes[:, 2:] = np.maximum(boxes[:, 2:], boxes[:, :2] + 4.0)
        scores = rng.uniform(0.01, 1.0, len(images))
        order = rng.permutation(len(images))
        rows = zip(*(column[order].tolist() for column in (images, cats, scores, boxes)))
        files[name] = _csv_file(
            PREDICTIONS_HEADER,
            [
                f"img{i:05d},{leaves[c]},{s:.4f},{b[0]:.1f},{b[1]:.1f},{b[2]:.1f},{b[3]:.1f},{_rectangle(b)}"
                for i, c, s, b in rows
            ],
        )
    files["config.ini"] = _pipeline_config(10 * len(files["model_a.csv"]), "mask")
    return files


_WIDTH, _HEIGHT = 1024, 768


def _frame_boxes(rng: np.random.Generator, n: int, low: float, high: float) -> np.ndarray:
    """n boxes with sides in [low, high) that lie inside the 1024x768 frame."""
    sides = rng.uniform(low, high, (n, 2))
    corners = rng.uniform(2.0, [_WIDTH, _HEIGHT] - sides - 2.0)
    return np.hstack([corners, corners + sides])


def _rectangle(box: list[float]) -> str:
    """The mask fields of a box's pixel rectangle in the 1024x768 frame:
    every image row it covers gives a 1-run and the 0-run after it."""
    x0, y0, x1, y1 = (int(round(v)) for v in box)
    x1, y1 = max(x1, x0 + 1), max(y1, y0 + 1)
    side = x1 - x0
    runs = [y0 * _WIDTH + x0] + [side, _WIDTH - side] * (y1 - y0)
    runs[-1] = _WIDTH * _HEIGHT - sum(runs[:-1])
    return f"{_WIDTH},{_HEIGHT},{' '.join(map(str, runs))}"


def _leaves_and_hierarchy() -> tuple[list[str], dict[str, bytes]]:
    """500 leaf categories, and the files with a three-level hierarchy over
    them."""
    leaves = [f"q{i:03d}" for i in range(500)]
    edges = [{"child": f"m{i:02d}", "parent": f"k{i // 5}"} for i in range(50)]
    edges += [{"child": leaf, "parent": f"m{i // 10:02d}"} for i, leaf in enumerate(leaves)]
    return leaves, {"hierarchy.json": json.dumps(edges).encode()}


def _verification(rng, leaves, gt_images, gt_cats, n_images) -> bytes:
    """Every ground truth verified positive, and per image two negative
    leaves that are none of its positives."""
    negatives = [
        (image, leaf)
        for image in range(n_images)
        for leaf in rng.choice(
            np.setdiff1d(np.arange(500), gt_cats[gt_images == image]), 2, replace=False
        ).tolist()
    ]
    verification = [f"img{i:05d},{leaves[c]},1" for i, c in zip(gt_images.tolist(), gt_cats.tolist())]
    verification += [f"img{i:05d},{leaves[c]},-1" for i, c in negatives]
    return _csv_file("image_id,category_id,verification", verification)


def _pipeline_config(budget: int, mode: str) -> bytes:
    evaluation = "" if mode == "box" else f"mode = {mode}\n"
    return (
        "[ensemble]\ninputs = model_a.csv model_b.csv\nout = ensembled.csv\n\n"
        "[drop-small-masks]\nin = ensembled.csv\nout = filtered.csv\n\n"
        f"[trim]\nin = filtered.csv\nmax-bytes = {budget}\nout = trimmed.csv\n"
        "report = trim_report.csv\n\n"
        "[eval]\npredictions = trimmed.csv\nground-truth = ground_truth.csv\n"
        f"verification = verification.csv\nhierarchy = hierarchy.json\n{evaluation}out-report = eval_report.csv\n"
    ).encode()


def _csv_file(header: str, rows: list[str]) -> bytes:
    return ("\n".join([header, *rows]) + "\n").encode()
