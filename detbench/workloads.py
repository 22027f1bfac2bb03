"""Seeded inputs for the three benchmark workloads.

Every file is written here with numpy and string formatting, never through
``detpipe.fileio``, so a change to the package's writers cannot change what
the benchmark feeds it.  Row counts are fixed per workload; the seed only
moves boxes, scores, categories and verification entries, so throughput
figures from different seeds measure the same amount of work.
"""

from __future__ import annotations

import json

import numpy as np

WIDTH, HEIGHT = 1024, 768
IOU = 0.5

PRED_HEADER = "image_id,category_id,score,x_min,y_min,x_max,y_max,mask_width,mask_height,mask_rle"
GT_HEADER = "image_id,category_id,x_min,y_min,x_max,y_max,mask_width,mask_height,mask_rle"

WORKLOADS = ("box-submission", "mask-submission", "expert-training")

WHY = {
    "box-submission": (
        "the paper's box submission: 2 x 17k box rows, 500 leaf categories; loads parsing, "
        "grouping, trim and evaluation, leaves the mask code idle"
    ),
    "mask-submission": (
        "the mask submission at 1024x768: 2 x 100 masked rows; mask fusion and mask "
        "evaluation dominate, box and parse paths sit nearly idle"
    ),
    "expert-training": (
        "5 rank experts plus RoI sampling, labels and loss over a 4-level hierarchy; the only "
        "workload that runs federated, training and experts"
    ),
}

# Box-submission sizes: every ground truth is jittered twice per model.
BOX_IMAGES, BOX_GT_PER_IMAGE, BOX_FP = 1500, 4, 5000
# Mask-submission sizes.
MASK_IMAGES, MASK_GT_PER_IMAGE, MASK_FP = 8, 5, 20
# Expert-training sizes.
EXPERTS, EXP_IMAGES, EXP_GT_PER_IMAGE, EXP_FP = 5, 800, 3, 600
POOL_IMAGES, ROIS_PER_IMAGE, PARTITIONS = 50, 160, 2
ASSIGN_IMAGES = 3


# -- shared pieces ---------------------------------------------------------------


def _tree(sizes: list[int]) -> list[list[str]]:
    """Regular category tree: level l has sizes[l] nodes, the last level holds
    the leaves, and node i of level l+1 hangs under node i // fanout."""
    return [[f"{'kmpq'[level]}{i:03d}" for i in range(n)] for level, n in enumerate(sizes)]


def _hierarchy_json(levels: list[list[str]]) -> bytes:
    edges = []
    for upper, lower in zip(levels, levels[1:]):
        fanout = len(lower) // len(upper)
        edges.extend({"child": c, "parent": upper[i // fanout]} for i, c in enumerate(lower))
    return (json.dumps(edges, indent=1) + "\n").encode()


def _leaf_span(levels: list[list[str]], level: int, index: int) -> tuple[int, int]:
    width = len(levels[-1]) // len(levels[level])
    return index * width, (index + 1) * width


def _zipf(n: int, exponent: float = 1.0) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1) ** exponent
    return weights / weights.sum()


def _csv(header: str, rows: list[str]) -> bytes:
    return ("\n".join([header, *rows]) + "\n").encode()


def _random_boxes(rng, n: int, lo: float, hi: float) -> np.ndarray:
    w = rng.uniform(lo, hi, n)
    h = rng.uniform(lo, hi, n)
    x0 = rng.uniform(2.0, WIDTH - 2.0 - w)
    y0 = rng.uniform(2.0, HEIGHT - 2.0 - h)
    return np.stack([x0, y0, x0 + w, y0 + h], axis=1)


def _jitter(rng, boxes: np.ndarray, sigma: float) -> np.ndarray:
    w = boxes[:, 2] - boxes[:, 0]
    h = boxes[:, 3] - boxes[:, 1]
    scale = np.stack([w, h, w, h], axis=1) * sigma
    out = boxes + rng.normal(0.0, 1.0, boxes.shape) * scale
    out[:, 0::2] = np.clip(out[:, 0::2], 1.0, WIDTH - 2.0)
    out[:, 1::2] = np.clip(out[:, 1::2], 1.0, HEIGHT - 2.0)
    out[:, 2] = np.maximum(out[:, 2], out[:, 0] + 4.0)
    out[:, 3] = np.maximum(out[:, 3], out[:, 1] + 4.0)
    return out


def _ground_truth(rng, n_images: int, per_image: int, n_leaves: int, lo: float, hi: float):
    """Distinct Zipf-distributed leaf categories per image, one box each."""
    weights = _zipf(n_leaves)
    images = np.repeat(np.arange(n_images), per_image)
    cats = np.concatenate(
        [rng.choice(n_leaves, per_image, replace=False, p=weights) for _ in range(n_images)]
    )
    return images, cats, _random_boxes(rng, len(images), lo, hi)


def _blob_rle(box: np.ndarray) -> str:
    """Run lengths of the ellipse inscribed in a box: one 1-run per covered
    row, never touching the frame edge, so rows never merge."""
    x0, y0, x1, y1 = box
    cx, cy, rx, ry = (x0 + x1) / 2, (y0 + y1) / 2, (x1 - x0) / 2, (y1 - y0) / 2
    ys = np.arange(max(int(y0), 1), min(int(np.ceil(y1)), HEIGHT - 1))
    dy = (ys + 0.5 - cy) / ry
    inside = np.abs(dy) < 1.0
    ys, dy = ys[inside], dy[inside]
    half = rx * np.sqrt(1.0 - dy * dy)
    xa = np.clip(np.rint(cx - half), 1, WIDTH - 1).astype(np.int64)
    xb = np.clip(np.rint(cx + half), 1, WIDTH - 1).astype(np.int64)
    keep = xb > xa
    if not keep.any():
        return str(WIDTH * HEIGHT)
    starts, ends = ys[keep] * WIDTH + xa[keep], ys[keep] * WIDTH + xb[keep]
    gaps = starts - np.concatenate(([0], ends[:-1]))
    runs = np.stack([gaps, ends - starts], axis=1).ravel().tolist()
    runs.append(WIDTH * HEIGHT - int(ends[-1]))
    return " ".join(map(str, runs))


def _pred_rows(images, cats, scores, boxes, leaves, masks: bool) -> list[str]:
    rows = []
    for i, c, s, b in zip(images.tolist(), cats.tolist(), scores.tolist(), boxes):
        mask = f"{WIDTH},{HEIGHT},{_blob_rle(b)}" if masks else ",,"
        rows.append(
            f"img{i:05d},{leaves[c]},{s:.4f},{b[0]:.1f},{b[1]:.1f},{b[2]:.1f},{b[3]:.1f},{mask}"
        )
    return rows


def _gt_rows(images, cats, boxes, leaves, masks: bool) -> list[str]:
    rows = []
    for i, c, b in zip(images.tolist(), cats.tolist(), boxes):
        mask = f"{WIDTH},{HEIGHT},{_blob_rle(b)}" if masks else ",,"
        rows.append(f"img{i:05d},{leaves[c]},{b[0]:.1f},{b[1]:.1f},{b[2]:.1f},{b[3]:.1f},{mask}")
    return rows


def _verification(rng, levels, gt_images, gt_cats, n_images, negative_levels) -> bytes:
    """Positives at every ground truth; per image, one negative at each of
    `negative_levels`, on a node whose subtree holds none of the image's
    positives, so the hierarchy expansion never conflicts and its size does
    not depend on the seed."""
    positives: list[set[int]] = [set() for _ in range(n_images)]
    for i, c in zip(gt_images.tolist(), gt_cats.tolist()):
        positives[i].add(c)
    rows = [f"img{i:05d},{levels[-1][c]},1" for i, c in zip(gt_images.tolist(), gt_cats.tolist())]
    for image in range(n_images):
        chosen: set[tuple[int, int]] = set()
        for level in negative_levels:
            for index in rng.permutation(len(levels[level])).tolist():
                lo, hi = _leaf_span(levels, level, index)
                if (level, index) not in chosen and not any(lo <= c < hi for c in positives[image]):
                    chosen.add((level, index))
                    rows.append(f"img{image:05d},{levels[level][index]},-1")
                    break
    return _csv("image_id,category_id,verification", rows)


def _model(rng, gt_images, gt_cats, gt_boxes, copies, n_fp, n_images, n_leaves, fp_size):
    """One simulated detector: every ground truth jittered `copies` times,
    plus `n_fp` false positives, in a shuffled row order."""
    images = np.concatenate([np.tile(gt_images, copies), rng.integers(0, n_images, n_fp)])
    cats = np.concatenate(
        [np.tile(gt_cats, copies), rng.choice(n_leaves, n_fp, p=_zipf(n_leaves))]
    )
    boxes = np.concatenate(
        [_jitter(rng, np.tile(gt_boxes, (copies, 1)), 0.05), _random_boxes(rng, n_fp, *fp_size)]
    )
    scores = np.concatenate(
        [rng.uniform(0.3, 1.0, copies * len(gt_images)), rng.uniform(0.01, 0.6, n_fp)]
    )
    order = rng.permutation(len(images))
    return images[order], cats[order], scores[order], boxes[order]


# -- workloads -------------------------------------------------------------------


def _submission(rng, masks: bool) -> dict[str, bytes]:
    levels = _tree([10, 50, 500])
    leaves = levels[-1]
    if masks:
        n_images, per_image, n_fp, gt_size, fp_size = MASK_IMAGES, MASK_GT_PER_IMAGE, MASK_FP, (60, 260), (20, 120)
    else:
        n_images, per_image, n_fp, gt_size, fp_size = BOX_IMAGES, BOX_GT_PER_IMAGE, BOX_FP, (24, 240), (16, 200)
    gt_images, gt_cats, gt_boxes = _ground_truth(rng, n_images, per_image, len(leaves), *gt_size)
    files = {
        "hierarchy.json": _hierarchy_json(levels),
        "ground_truth.csv": _csv(GT_HEADER, _gt_rows(gt_images, gt_cats, gt_boxes, leaves, masks)),
        "verification.csv": _verification(rng, levels, gt_images, gt_cats, n_images, [1, 2, 2, 2, 2, 2]),
    }
    for name in ("model_a.csv", "model_b.csv"):
        model = _model(rng, gt_images, gt_cats, gt_boxes, 2, n_fp, n_images, len(leaves), fp_size)
        files[name] = _csv(PRED_HEADER, _pred_rows(*model, leaves, masks))
    # Box submissions are trimmed to about half of one input file; the mask
    # budget is loose so the trim pass runs without removing anything.
    budget = len(files["model_a.csv"]) // 2 if not masks else 10 * len(files["model_a.csv"])
    mode = "mask" if masks else "box"
    files["config.ini"] = f"""[ensemble]
inputs = model_a.csv model_b.csv
iou-threshold = {IOU}
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
mode = {mode}
iou-threshold = {IOU}
out-report = eval_report.csv
""".encode()
    return files


def _expert_training(rng) -> dict[str, bytes]:
    levels = _tree([5, 25, 100, 500])
    leaves = levels[-1]
    gt_images, gt_cats, gt_boxes = _ground_truth(
        rng, EXP_IMAGES, EXP_GT_PER_IMAGE, len(leaves), 24, 240
    )
    counts = np.bincount(gt_cats, minlength=len(leaves))
    files = {
        "hierarchy.json": _hierarchy_json(levels),
        "ground_truth.csv": _csv(GT_HEADER, _gt_rows(gt_images, gt_cats, gt_boxes, leaves, False)),
        "verification.csv": _verification(rng, levels, gt_images, gt_cats, EXP_IMAGES, [1, 2]),
        "stats.csv": _csv("category_id,count", [f"{c},{n}" for c, n in zip(leaves, counts.tolist())]),
        "categories.csv": _csv("category_id", leaves),
    }
    for e in range(EXPERTS):
        model = _model(rng, gt_images, gt_cats, gt_boxes, 1, EXP_FP, EXP_IMAGES, len(leaves), (16, 200))
        files[f"expert_{e}.csv"] = _csv(PRED_HEADER, _pred_rows(*model, leaves, False))

    # RoI pool over the first images: jittered ground truth (foreground) and
    # random proposals (mostly background), with objectness scores.
    roi_rows = []
    for image in range(POOL_IMAGES):
        own = gt_boxes[gt_images == image]
        n_fg = ROIS_PER_IMAGE // 4
        fg = _jitter(rng, own[rng.integers(0, len(own), n_fg)], 0.08)
        boxes = np.concatenate([fg, _random_boxes(rng, ROIS_PER_IMAGE - n_fg, 16, 300)])
        boxes = boxes[rng.permutation(len(boxes))]
        for b, o in zip(boxes, rng.uniform(0.0, 1.0, len(boxes)).tolist()):
            roi_rows.append(f"img{image:05d},{b[0]:.1f},{b[1]:.1f},{b[2]:.1f},{b[3]:.1f},{o:.3f}")
    files["rois.csv"] = _csv("image_id,x_min,y_min,x_max,y_max,objectness", roi_rows)

    # Logits for the assigned images: one row per RoI of partition 0 (the pool
    # is split round-robin, so partition 0 holds ceil(n / k) RoIs per image).
    n_rois = -(-ROIS_PER_IMAGE // PARTITIONS)
    for image in range(ASSIGN_IMAGES):
        logits = rng.normal(0.0, 3.0, (n_rois, len(leaves))).tolist()
        rows = [f"{r},{c},{v:.6f}" for r in range(n_rois) for c, v in zip(leaves, logits[r])]
        files[f"logits_{image}.csv"] = _csv("roi_index,category_id,logit", rows)

    sections = [
        f"[split-experts]\nby = rank\nstats = stats.csv\nstart-rank = 0\n"
        f"end-rank = {len(leaves)}\nnum-experts = {EXPERTS}\nout = groups.csv\n"
    ]
    for e in range(EXPERTS):
        sections.append(
            f"[filter-expert.{e}]\nground-truth = ground_truth.csv\n"
            f"verification = verification.csv\ngroup-file = groups.csv\ngroup-index = {e}\n"
            f"out-ground-truth = expert_{e}_gt.csv\nout-verification = expert_{e}_verification.csv\n"
            f"out-images = expert_{e}_images.csv\n"
        )
        sections.append(
            f"[restrict.{e}]\nin = expert_{e}.csv\ngroup-file = groups.csv\n"
            f"group-index = {e}\nout = restricted_{e}.csv\n"
        )
    inputs = " ".join(f"restricted_{e}.csv" for e in range(EXPERTS))
    sections.append(f"[ensemble]\ninputs = {inputs}\niou-threshold = {IOU}\nout = ensembled.csv\n")
    sections.append(
        "[eval]\npredictions = ensembled.csv\nground-truth = ground_truth.csv\n"
        "verification = verification.csv\nhierarchy = hierarchy.json\nmode = box\n"
        f"iou-threshold = {IOU}\nout-report = eval_report.csv\n"
    )
    sections.append(f"[partition-pool]\nrois = rois.csv\nk = {PARTITIONS}\nout-prefix = part_\n")
    sections.append(
        "[sample-rois]\nrois = part_0.csv\nground-truth = ground_truth.csv\nn-sample = 64\n"
        "fg-fraction = 0.25\nfg-iou-threshold = 0.5\nseed = 7\nout = sampled.csv\n"
    )
    for image in range(ASSIGN_IMAGES):
        sections.append(
            f"[assign.{image}]\nimage-id = img{image:05d}\nrois = part_0.csv\n"
            "ground-truth = ground_truth.csv\nverification = verification.csv\n"
            f"hierarchy = hierarchy.json\ncategories = categories.csv\niou-threshold = {IOU}\n"
            f"out = labels_{image}.csv\n"
        )
        sections.append(f"[loss.{image}]\nlabels = labels_{image}.csv\nlogits = logits_{image}.csv\n")
    files["config.ini"] = "\n".join(sections).encode()
    return files


def generate(workload: str, seed: int) -> dict[str, bytes]:
    """All input files of one workload, as name -> bytes; same seed, same bytes."""
    index = WORKLOADS.index(workload)
    rng = np.random.default_rng([index, seed])
    if workload == "expert-training":
        return _expert_training(rng)
    return _submission(rng, masks=workload == "mask-submission")


def input_rows(files: dict[str, bytes]) -> int:
    """Data rows over the workload's CSV inputs (headers excluded)."""
    return sum(data.count(b"\n") - 1 for name, data in files.items() if name.endswith(".csv"))
