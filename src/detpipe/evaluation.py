"""Federated mean-average-precision evaluation.

Predictions are only scored on images where their category has been
verified; on unverified images the object may or may not exist, so such
predictions are ignored rather than counted for or against the detector.
Box mode and mask mode share all logic except the overlap function.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .errors import ValidationError
from .federated import expand_verification
from .geometry import _check_iou_threshold, box_iou, mask_iou
from .records import (
    POSITIVE,
    UNVERIFIED,
    GroundTruthInstance,
    Hierarchy,
    Prediction,
    VerificationTable,
)

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
    gts: Sequence[GroundTruthInstance],
    verification: VerificationTable,
    iou_threshold: float = 0.5,
    overlap: Callable[[Prediction, GroundTruthInstance], float] | None = None,
) -> MatchResult:
    """Greedily match one category's predictions against its ground truths.

    Predictions are walked in descending score order (ties keep input order).
    A prediction on an image where the category is unverified is ignored;
    otherwise it becomes a true positive if the best unmatched ground truth
    on its image reaches the IoU threshold (ties to the earliest ground
    truth), else a false positive.
    """
    _check_iou_threshold(iou_threshold)
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
    matched: set[int] = set()
    flags: list[str] = []
    matched_gt: list[int | None] = []
    for index in order:
        p = predictions[index]
        if verification.status(p.image_id, p.category_id) == UNVERIFIED:
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


def evaluate(
    predictions: Sequence[Prediction],
    gts: Sequence[GroundTruthInstance],
    verification: VerificationTable,
    hierarchy: Hierarchy,
    iou_threshold: float = 0.5,
    mode: str = "box",
) -> EvalReport:
    """Per-category AP and the mean over categories with at least one GT.

    The verification table is hierarchy-expanded before matching, and every
    ground truth must then be positively verified on its image.
    """
    if mode not in ("box", "mask"):
        raise ValidationError(f"mode must be 'box' or 'mask', got {mode!r}")
    if mode == "mask":
        for record in (*predictions, *gts):
            if record.mask is None:
                raise ValidationError(
                    f"mask-mode evaluation requires masks; missing on image "
                    f"{record.image_id!r}, category {record.category_id!r}"
                )
    expanded = expand_verification(verification, hierarchy)
    for gt in gts:
        if expanded.status(gt.image_id, gt.category_id) != POSITIVE:
            raise ValidationError(
                f"ground-truth category {gt.category_id!r} on image "
                f"{gt.image_id!r} is not positively verified"
            )
    if not gts:
        raise ValidationError("cannot evaluate with no ground-truth instances")
    # One pass buckets the records by category; each bucket keeps input order.
    preds_by_category: dict[str, list[Prediction]] = {}
    for p in predictions:
        preds_by_category.setdefault(p.category_id, []).append(p)
    gts_by_category: dict[str, list[GroundTruthInstance]] = {}
    for g in gts:
        gts_by_category.setdefault(g.category_id, []).append(g)
    results: list[CategoryResult] = []
    ap_values: list[float] = []
    for category_id in sorted(preds_by_category.keys() | gts_by_category.keys()):
        preds_c = preds_by_category.get(category_id, [])
        gts_c = gts_by_category.get(category_id, [])
        overlap = _mask_overlap if mode == "mask" else None
        match = match_category(preds_c, gts_c, expanded, iou_threshold, overlap)
        ignored = sum(1 for flag in match.flags if flag == IGNORED)
        if gts_c:
            ap = average_precision(match, len(gts_c))
            ap_values.append(ap)
        else:
            ap = None
        results.append(
            CategoryResult(
                category_id=category_id,
                ap=ap,
                gt_count=len(gts_c),
                prediction_count=len(preds_c),
                ignored_count=ignored,
            )
        )
    mean_ap = sum(ap_values) / len(ap_values)
    return EvalReport(results=tuple(results), mean_ap=mean_ap)
