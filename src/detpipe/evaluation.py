"""Federated mean-average-precision evaluation.

Predictions are only scored on images where their category has been
verified; on unverified images the object may or may not exist, so such
predictions are ignored rather than counted for or against the detector.
Box mode and mask mode share all logic except the overlap function.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .federated import expand_verification
from .geometry import _areas, _check_iou_threshold, _iou, _run_iou, box_iou, mask_iou
from .records import (
    POSITIVE,
    UNVERIFIED,
    GroundTruthInstance,
    Hierarchy,
    Prediction,
    VerificationTable,
)
from .table import GroundTruth, GroundTruthTable, Predictions, _merge_codes, as_table

__all__ = [
    "TRUE_POSITIVE",
    "FALSE_POSITIVE",
    "IGNORED",
    "MatchResult",
    "CategoryResult",
    "EvalReport",
    "match_category",
    "average_precision",
    "evaluate",
]

TRUE_POSITIVE = "tp"
FALSE_POSITIVE = "fp"
IGNORED = "ignored"


@dataclass(frozen=True)
class MatchResult:
    """Match flags for one category's predictions, in descending score order.

    order[i] is the index of the i-th scored prediction in the input list;
    matched_gt[i] is the matched ground-truth index for true positives.
    """

    order: tuple[int, ...]
    flags: tuple[str, ...]
    matched_gt: tuple[int | None, ...]

    def __post_init__(self) -> None:
        if not len(self.order) == len(self.flags) == len(self.matched_gt):
            raise ValidationError("match result fields differ in length")
        for flag in self.flags:
            if flag not in (TRUE_POSITIVE, FALSE_POSITIVE, IGNORED):
                raise ValidationError(f"unknown match flag {flag!r}")


@dataclass(frozen=True)
class CategoryResult:
    """Per-category evaluation row; ap is None when the category has no GT."""

    category_id: str
    ap: float | None
    gt_count: int
    prediction_count: int
    ignored_count: int


@dataclass(frozen=True)
class EvalReport:
    results: tuple[CategoryResult, ...]
    mean_ap: float


def match_category(
    predictions: Sequence[Prediction],
    gts: GroundTruth,
    verification: VerificationTable,
    iou_threshold: float = 0.5,
    overlap: Callable[[Prediction, GroundTruthInstance], float] | None = None,
) -> MatchResult:
    """Greedily match one category's predictions against its ground truths.

    Predictions are walked in descending score order (ties keep input order).
    A prediction on an image where the category is unverified is ignored;
    otherwise it becomes a true positive if the best unmatched ground truth
    on its image reaches the IoU threshold (ties to the earliest ground
    truth), else a false positive.  Ground truth may be given as a table or
    as records.
    """
    _check_iou_threshold(iou_threshold)
    gts = list(gts)
    categories = {p.category_id for p in predictions} | {g.category_id for g in gts}
    if len(categories) > 1:
        raise ValidationError(
            f"match_category expects a single category, got {sorted(categories)}"
        )
    if overlap is None:
        overlap = lambda p, g: box_iou(p.box, g.box)  # noqa: E731
    gts_by_image: dict[str, list[int]] = {}
    for index, gt in enumerate(gts):
        gts_by_image.setdefault(gt.image_id, []).append(index)
    order = sorted(range(len(predictions)), key=lambda i: (-predictions[i].score, i))
    each = np.arange(len(predictions))
    statuses = verification.statuses(
        [p.image_id for p in predictions], each, [p.category_id for p in predictions], each
    ).tolist()
    matched: set[int] = set()
    flags: list[str] = []
    matched_gt: list[int | None] = []
    for index in order:
        p = predictions[index]
        if statuses[index] == UNVERIFIED:
            flags.append(IGNORED)
            matched_gt.append(None)
            continue
        best_index: int | None = None
        best_overlap = 0.0
        for gt_index in gts_by_image.get(p.image_id, ()):
            if gt_index in matched:
                continue
            value = overlap(p, gts[gt_index])
            if value > best_overlap:
                best_overlap = value
                best_index = gt_index
        if best_index is not None and best_overlap >= iou_threshold:
            matched.add(best_index)
            flags.append(TRUE_POSITIVE)
            matched_gt.append(best_index)
        else:
            flags.append(FALSE_POSITIVE)
            matched_gt.append(None)
    return MatchResult(tuple(order), tuple(flags), tuple(matched_gt))


def average_precision(match: MatchResult, gt_count: int) -> float:
    """Area under the precision-recall curve, all-point interpolation.

    Precision is made monotonically non-increasing from the right before
    integration; ignored predictions contribute to neither axis; recall uses
    gt_count as its denominator.
    """
    if gt_count < 1:
        raise ValidationError(f"gt_count must be >= 1, got {gt_count}")
    precisions: list[float] = []
    recalls: list[float] = []
    tp = 0
    fp = 0
    for flag in match.flags:
        if flag == IGNORED:
            continue
        if flag == TRUE_POSITIVE:
            tp += 1
        else:
            fp += 1
        precisions.append(tp / (tp + fp))
        recalls.append(tp / gt_count)
    if not precisions:
        return 0.0
    for i in range(len(precisions) - 2, -1, -1):
        precisions[i] = max(precisions[i], precisions[i + 1])
    ap = 0.0
    previous_recall = 0.0
    for precision, recall in zip(precisions, recalls):
        ap += (recall - previous_recall) * precision
        previous_recall = recall
    return ap


def _mask_overlap(p: Prediction, g: GroundTruthInstance) -> float:
    """Mask IoU; a size mismatch names the image."""
    if (p.mask.width, p.mask.height) != (g.mask.width, g.mask.height):
        raise ValidationError(
            f"mask dimensions differ on image {p.image_id!r}: "
            f"{p.mask.width}x{p.mask.height} vs {g.mask.width}x{g.mask.height}"
        )
    return mask_iou(p.mask, g.mask)


# Match flags of evaluate's prediction rows.
_TP, _FP, _IGNORED = 1, 0, -1


def _match(
    strata: np.ndarray,
    scores: np.ndarray,
    gt_strata: np.ndarray,
    flags: np.ndarray,
    overlap: Callable[[np.ndarray, np.ndarray], np.ndarray],
    iou_threshold: float,
) -> None:
    """Set flags[i] to _TP for each prediction row that match_category
    matches, with every (category, image) stratum walked at once.

    At step k, the k-th prediction of each stratum that is not _IGNORED, by
    descending score (ties in row order), takes the unmatched ground truth
    of its stratum with the greatest overlap (ties to the earliest row),
    when that overlap is above 0 and reaches the threshold.  overlap gives
    the values of (prediction row, ground-truth row) pairs.
    """
    live = np.flatnonzero(flags != _IGNORED)
    order = live[np.lexsort((-scores[live], strata[live]))]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = strata[order[1:]] != strata[order[:-1]]
    positions = np.arange(len(order))
    step = positions - np.maximum.accumulate(np.where(starts, positions, 0))
    by_step = order[np.argsort(step, kind="stable")]
    ends = np.cumsum(np.bincount(step)).tolist()
    gt_order = np.argsort(gt_strata, kind="stable")
    gt_sorted = gt_strata[gt_order]
    matched = np.zeros(len(gt_order), dtype=bool)
    for first, end in zip([0, *ends], ends):
        rows = by_step[first:end]
        lo = np.searchsorted(gt_sorted, strata[rows], "left")
        counts = np.searchsorted(gt_sorted, strata[rows], "right") - lo
        # Each prediction paired with its stratum's unmatched ground truths,
        # in row order; a slot is a position in gt_order.
        pair_ends = np.cumsum(counts)
        pair = np.repeat(np.arange(len(rows)), counts)
        slot = np.repeat(lo - pair_ends + counts, counts) + np.arange(len(pair))
        free = ~matched[slot]
        pair, slot = pair[free], slot[free]
        if not len(pair):
            continue
        values = overlap(rows[pair], gt_order[slot])
        # Per prediction, its greatest overlap, the earliest ground truth
        # first.  A nan overlap (of two boxes whose areas overflow) sorts
        # last and fails the test below.
        best = np.lexsort((slot, -values, pair))
        best = best[np.concatenate(([True], pair[best[1:]] != pair[best[:-1]]))]
        best = best[(values[best] > 0.0) & (values[best] >= iou_threshold)]
        matched[slot[best]] = True
        flags[rows[pair[best]]] = _TP


def _average_precision(hits: np.ndarray, gt_count: int) -> float:
    """average_precision of one category's scored predictions in rank
    order, hits[i] true for a true positive.  The divisions, the reversed
    running maximum and the sequential sum are average_precision's, so the
    value is equal bit for bit."""
    if not len(hits):
        return 0.0
    tp = np.cumsum(hits)
    precisions = tp / np.arange(1, len(hits) + 1)
    recalls = tp / gt_count
    precisions = np.maximum.accumulate(precisions[::-1])[::-1]
    steps = recalls.copy()
    steps[1:] -= recalls[:-1]
    return float(np.cumsum(steps * precisions)[-1])


def evaluate(
    predictions: Predictions,
    gts: GroundTruth,
    verification: VerificationTable,
    hierarchy: Hierarchy,
    iou_threshold: float = 0.5,
    mode: str = "box",
) -> EvalReport:
    """Per-category AP and the mean over categories with at least one GT.

    The verification table is hierarchy-expanded before matching, and every
    ground truth must then be positively verified on its image.  Each
    category is matched as match_category would and scored as
    average_precision would; since a prediction can only match a ground
    truth on its own image, all (category, image) strata are matched
    together.  Predictions and ground truth may each be given as a table or
    as records.
    """
    if mode not in ("box", "mask"):
        raise ValidationError(f"mode must be 'box' or 'mask', got {mode!r}")
    table = as_table(predictions)
    gts = as_table(gts, GroundTruthTable)
    if mode == "mask":
        for rows in (table, gts):
            missing = np.flatnonzero(~rows.masks.masked())
            if len(missing):
                row = rows.row(missing[0])
                raise ValidationError(
                    f"mask-mode evaluation requires masks; missing on image "
                    f"{row.image_id!r}, category {row.category_id!r}"
                )
    expanded = expand_verification(verification, hierarchy)
    unverified = np.flatnonzero(
        expanded.statuses(gts.image_ids, gts.image_codes, gts.category_ids, gts.category_codes)
        != POSITIVE
    )
    if len(unverified):
        gt = gts.row(unverified[0])
        raise ValidationError(
            f"ground-truth category {gt.category_id!r} on image "
            f"{gt.image_id!r} is not positively verified"
        )
    if not len(gts):
        raise ValidationError("cannot evaluate with no ground-truth instances")
    _check_iou_threshold(iou_threshold)

    # Codes over the predictions' and ground truths' ids together.
    n = len(table)
    categories, category_codes = _merge_codes(
        [table.category_ids, gts.category_ids], [table.category_codes, gts.category_codes]
    )
    images, image_codes = _merge_codes(
        [table.image_ids, gts.image_ids], [table.image_codes, gts.image_codes]
    )
    strata = category_codes.astype(np.int64) * len(images) + image_codes
    statuses = expanded.statuses(
        table.image_ids, table.image_codes, table.category_ids, table.category_codes
    )
    flags = np.where(statuses == UNVERIFIED, _IGNORED, _FP).astype(np.int8)
    mismatches: list[tuple[int, int]] = []
    if mode == "mask":

        predicted, true = table.masks, gts.masks

        def overlap(p: np.ndarray, g: np.ndarray) -> np.ndarray:
            # A pair of masks whose sizes differ is recorded and gets 0.0.
            values = np.zeros(len(p))
            same = (predicted.widths[p] == true.widths[g]) & (predicted.heights[p] == true.heights[g])
            mismatches.extend(zip(p[~same].tolist(), g[~same].tolist()))
            for k, i, j in zip(np.flatnonzero(same).tolist(), p[same].tolist(), g[same].tolist()):
                values[k] = _run_iou(predicted.row_runs(i), true.row_runs(j))
            return values

    else:
        areas = [_areas(table.boxes), _areas(gts.boxes)]

        def overlap(p: np.ndarray, g: np.ndarray) -> np.ndarray:
            return _iou(table.boxes[p], areas[0][p], gts.boxes[g], areas[1][g])

    _match(strata[:n], table.scores, strata[n:], flags, overlap, iou_threshold)
    # Each category's predictions by descending score, ties in row order.
    ranked = np.lexsort((-table.scores, category_codes[:n]))
    if mismatches:
        # The first mismatch match_category meets, walking the categories in
        # order and each category's predictions in rank order.
        rank = np.empty(n, dtype=np.int64)
        rank[ranked] = np.arange(n)
        p, g = min(mismatches, key=lambda pair: (rank[pair[0]], pair[1]))
        _mask_overlap(table.row(p), gts.row(g))

    n_categories = len(categories)
    prediction_counts = np.bincount(category_codes[:n], minlength=n_categories).tolist()
    ignored_counts = np.bincount(
        category_codes[:n][flags == _IGNORED], minlength=n_categories
    ).tolist()
    gt_counts = np.bincount(category_codes[n:], minlength=n_categories).tolist()
    scored = ranked[flags[ranked] != _IGNORED]
    bounds = np.searchsorted(category_codes[scored], np.arange(n_categories + 1)).tolist()
    hits = flags[scored] == _TP
    results: list[CategoryResult] = []
    ap_values: list[float] = []
    for c, category_id in enumerate(categories):
        ap = None
        if gt_counts[c]:
            ap = _average_precision(hits[bounds[c] : bounds[c + 1]], gt_counts[c])
            ap_values.append(ap)
        results.append(
            CategoryResult(
                category_id=category_id,
                ap=ap,
                gt_count=gt_counts[c],
                prediction_count=prediction_counts[c],
                ignored_count=ignored_counts[c],
            )
        )
    mean_ap = sum(ap_values) / len(ap_values)
    return EvalReport(results=tuple(results), mean_ap=mean_ap)
