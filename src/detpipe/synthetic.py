"""Seeded desk-scale benchmarks for the ensembling and expert-split pipelines.

Two generators live here:

* an RoI-diversity world, where two simulated detectors see disjoint halves
  of a shared RoI pool and therefore recover different subsets of the ground
  truth, so their ensemble should beat either one alone;
* an expert-split world, where per-category prediction quality degrades with
  the number of categories an expert is responsible for, so finer splits of
  the same rank window should score higher after merging.

Both are driven entirely by a numpy Generator seeded by the caller, so every
trial is reproducible.
"""

from __future__ import annotations

import numpy as np

from .ensemble import ensemble
from .evaluation import evaluate
from .experts import rarity_ranking, restrict_predictions, split_by_rank
from .federated import assign_rois
from .geometry import Box
from .records import (
    CategoryStats,
    GroundTruthInstance,
    Hierarchy,
    Prediction,
    VerificationTable,
)
from .training import partition_pool

__all__ = [
    "roi_diversity_trial",
    "expert_split_trial",
]

_IMAGE_SIDE = 1000.0


def _random_box(rng: np.random.Generator, min_side: float = 80.0, max_side: float = 140.0) -> Box:
    width = rng.uniform(min_side, max_side)
    height = rng.uniform(min_side, max_side)
    x0 = rng.uniform(0.0, _IMAGE_SIDE - width)
    y0 = rng.uniform(0.0, _IMAGE_SIDE - height)
    return Box(x0, y0, x0 + width, y0 + height)


def _jitter_box(rng: np.random.Generator, box: Box, sigma: float) -> Box:
    noise = rng.normal(0.0, sigma, size=4)
    x_lo, x_hi = sorted((box.x_min + noise[0], box.x_max + noise[1]))
    y_lo, y_hi = sorted((box.y_min + noise[2], box.y_max + noise[3]))
    return Box(x_lo, y_lo, x_hi, y_hi)


def _clipped_score(rng: np.random.Generator, center: float, sigma: float) -> float:
    return float(np.clip(rng.normal(center, sigma), 0.001, 0.999))


def roi_diversity_trial(
    seed: int,
    n_images: int = 12,
    n_categories: int = 3,
    gts_per_image: int = 3,
    jitter_sigma: float = 5.0,
    score_sigma: float = 0.05,
    iou_threshold: float = 0.5,
) -> tuple[float, float, float]:
    """One trial of ensembling two detectors built on disjoint RoI partitions.

    Each ground truth contributes two usable RoIs (localization noise on the
    corners) to a shuffled per-image pool; the pool is split round-robin into
    two halves, one per detector.  A detector predicts from every RoI in its
    half: RoIs overlapping a ground truth become scored detections, the rest
    become low-score false positives.  Returns (mAP of detector A, mAP of
    detector B, mAP of their ensemble).
    """
    rng = np.random.default_rng(seed)
    categories = [f"c{i}" for i in range(n_categories)]
    gts: list[GroundTruthInstance] = []
    verification: dict[tuple[str, str], int] = {}
    category_cursor = 0
    for i in range(n_images):
        image_id = f"im{i:03d}"
        present: set[str] = set()
        for _ in range(gts_per_image):
            category_id = categories[category_cursor % n_categories]
            category_cursor += 1
            present.add(category_id)
            gts.append(GroundTruthInstance(image_id, category_id, _random_box(rng)))
        for category_id in categories:
            verification[(image_id, category_id)] = 1 if category_id in present else -1
    table = VerificationTable(verification)

    model_predictions: list[list[Prediction]] = [[], []]
    for i in range(n_images):
        image_id = f"im{i:03d}"
        image_gts = [g for g in gts if g.image_id == image_id]
        pool: list[Box] = []
        for gt in image_gts:
            pool.append(_jitter_box(rng, gt.box, jitter_sigma))
            pool.append(_jitter_box(rng, gt.box, jitter_sigma))
        for _ in range(2 * gts_per_image):
            pool.append(_random_box(rng))
        shuffled = [pool[j] for j in rng.permutation(len(pool))]
        halves = partition_pool(shuffled, 2)
        for model_index, half in enumerate(halves):
            assignment = assign_rois(half, image_gts, iou_threshold)
            for roi, gt_index, best_iou in zip(half, assignment.gt_indices, assignment.ious):
                if gt_index is not None:
                    score = _clipped_score(rng, 0.4 + 0.5 * best_iou, score_sigma)
                    model_predictions[model_index].append(
                        Prediction(image_id, image_gts[gt_index].category_id, score, roi)
                    )
                else:
                    category_id = categories[int(rng.integers(n_categories))]
                    score = float(rng.uniform(0.02, 0.3))
                    model_predictions[model_index].append(
                        Prediction(image_id, category_id, score, roi)
                    )

    hierarchy = Hierarchy(())
    map_a = evaluate(
        ensemble([model_predictions[0]], iou_threshold), gts, table, hierarchy
    ).mean_ap
    map_b = evaluate(
        ensemble([model_predictions[1]], iou_threshold), gts, table, hierarchy
    ).mean_ap
    map_ens = evaluate(
        ensemble(model_predictions, iou_threshold), gts, table, hierarchy
    ).mean_ap
    return map_a, map_b, map_ens


def expert_split_trial(
    seed: int,
    expert_counts: tuple[int, ...] = (1, 5),
    n_categories: int = 120,
    window: tuple[int, int] = (50, 100),
    images_per_category: int = 3,
    iou_threshold: float = 0.5,
) -> dict[int, float]:
    """One trial of splitting a rank window across different expert counts.

    Prediction quality degrades with group size: an expert responsible for s
    categories detects each object with probability ~(1 - 0.009 s) and with
    localization noise growing in s.  Every split sees the same world; only
    the grouping changes.  Returns {num_experts: merged mAP}.
    """
    rng = np.random.default_rng(seed)
    stats = CategoryStats({f"cat{i:03d}": 10 + 3 * i for i in range(n_categories)})
    ranking = rarity_ranking(stats)
    start, end = window
    window_categories = ranking[start:end]

    gts: list[GroundTruthInstance] = []
    verification: dict[tuple[str, str], int] = {}
    for category_id in window_categories:
        for j in range(images_per_category):
            image_id = f"im_{category_id}_{j}"
            gts.append(GroundTruthInstance(image_id, category_id, _random_box(rng)))
            verification[(image_id, category_id)] = 1
    table = VerificationTable(verification)
    hierarchy = Hierarchy(())

    results: dict[int, float] = {}
    for num_experts in expert_counts:
        groups = split_by_rank(ranking, start, end, num_experts)
        expert_files: list[list[Prediction]] = []
        for group in groups:
            size = len(group)
            detect_prob = max(0.2, 1.0 - 0.009 * size)
            sigma = 0.5 + 0.08 * size
            predictions: list[Prediction] = []
            group_set = set(group.categories)
            for gt in gts:
                if gt.category_id not in group_set:
                    continue
                if rng.uniform() < detect_prob:
                    predictions.append(
                        Prediction(
                            gt.image_id,
                            gt.category_id,
                            _clipped_score(rng, 0.75, 0.08),
                            _jitter_box(rng, gt.box, sigma),
                        )
                    )
                if rng.uniform() < 0.3:
                    predictions.append(
                        Prediction(
                            gt.image_id,
                            gt.category_id,
                            float(rng.uniform(0.05, 0.4)),
                            _random_box(rng),
                        )
                    )
            expert_files.append(restrict_predictions(predictions, group))
        merged = ensemble(expert_files, iou_threshold)
        results[num_experts] = evaluate(merged, gts, table, hierarchy).mean_ap
    return results
