"""Label assignment under federated annotation semantics.

Covers the whole chain from raw verification tables to the masked sigmoid
cross-entropy classification loss: hierarchy expansion of verifications,
RoI-to-ground-truth assignment, the {-1, 0, +1} label matrix, and the loss
itself.  Unverified categories are never penalized: their label is 0 and
their logits are ignored.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import Box, _check_iou_threshold, box_iou
from .records import (
    NEGATIVE,
    POSITIVE,
    GroundTruthInstance,
    Hierarchy,
    VerificationTable,
)

__all__ = [
    "Assignment",
    "LabelMatrix",
    "expand_verification",
    "assign_rois",
    "build_label_matrix",
    "classification_loss",
]


@dataclass(frozen=True)
class Assignment:
    """Per-RoI assignment: ground-truth index (None = background) and its IoU."""

    gt_indices: tuple[int | None, ...]
    ious: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.gt_indices) != len(self.ious):
            raise ValidationError("assignment index and IoU lists differ in length")

    def __len__(self) -> int:
        return len(self.gt_indices)


@dataclass(frozen=True, eq=False)
class LabelMatrix:
    """Dense (RoI x category) target matrix with entries in {-1, 0, +1}."""

    values: np.ndarray
    categories: tuple[str, ...]

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=np.int8, copy=True)
        if arr.ndim != 2:
            raise ValidationError(f"label matrix must be 2-D, got shape {arr.shape}")
        categories = tuple(self.categories)
        if len(set(categories)) != len(categories):
            raise ValidationError("label matrix categories must be unique")
        if arr.shape[1] != len(categories):
            raise ValidationError(
                f"label matrix has {arr.shape[1]} columns but "
                f"{len(categories)} categories"
            )
        if not np.isin(arr, (-1, 0, 1)).all():
            raise ValidationError("label matrix entries must be -1, 0 or 1")
        if arr.size and (arr == 1).sum(axis=1).max(initial=0) > 1:
            raise ValidationError("label matrix rows may contain at most one +1")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "categories", categories)


def expand_verification(table: VerificationTable, hierarchy: Hierarchy) -> VerificationTable:
    """Close a verification table over the category hierarchy.

    A positive verification implies positives for all ancestors (the present
    subclass entails the superclass); a negative implies negatives for all
    descendants (an absent superclass rules out every subclass).  The result
    is a fixed point: expanding it again changes nothing.
    """
    positives: set[tuple[str, str]] = set()
    negatives: set[tuple[str, str]] = set()
    # Each category's closure is walked once per call, not once per entry.
    ancestors: dict[str, frozenset[str]] = {}
    descendants: dict[str, frozenset[str]] = {}
    for (image_id, category_id), sign in table.items():
        if sign == POSITIVE:
            positives.add((image_id, category_id))
            if category_id not in ancestors:
                ancestors[category_id] = hierarchy.ancestors(category_id)
            for ancestor in ancestors[category_id]:
                positives.add((image_id, ancestor))
        else:
            negatives.add((image_id, category_id))
            if category_id not in descendants:
                descendants[category_id] = hierarchy.descendants(category_id)
            for descendant in descendants[category_id]:
                negatives.add((image_id, descendant))
    # Building the result table below is this function's memory peak; the
    # closures are not needed for it.
    del ancestors, descendants
    conflicts = sorted(positives & negatives)
    if conflicts:
        listing = "; ".join(f"image {img!r}, category {cat!r}" for img, cat in conflicts)
        raise ValidationError(
            f"hierarchy expansion produces conflicting verifications: {listing}"
        )
    entries: dict[tuple[str, str], int] = {key: POSITIVE for key in positives}
    entries.update({key: NEGATIVE for key in negatives})
    return VerificationTable(entries)


def assign_rois(
    rois: Sequence[Box],
    gts: Sequence[GroundTruthInstance],
    iou_threshold: float = 0.5,
) -> Assignment:
    """Assign each RoI to the ground truth of maximal IoU, if it clears the
    threshold; ties break toward the smallest ground-truth index."""
    _check_iou_threshold(iou_threshold)
    gt_indices: list[int | None] = []
    ious: list[float] = []
    for roi in rois:
        best_index: int | None = None
        best_iou = 0.0
        for index, gt in enumerate(gts):
            iou = box_iou(roi, gt.box)
            if iou > best_iou:
                best_iou = iou
                best_index = index
        if best_index is not None and best_iou >= iou_threshold:
            gt_indices.append(best_index)
            ious.append(best_iou)
        else:
            gt_indices.append(None)
            ious.append(best_iou)
    return Assignment(tuple(gt_indices), tuple(ious))


def build_label_matrix(
    assignment: Assignment,
    gts: Sequence[GroundTruthInstance],
    verification: VerificationTable,
    image_id: str,
    categories: Sequence[str],
) -> LabelMatrix:
    """Build the per-RoI label rows for one image.

    Background rows get -1 for every verified category and 0 elsewhere; an
    assigned row additionally gets +1 in its ground truth's category column.
    Every ground-truth category must be positively verified on the image.
    """
    categories = tuple(categories)
    column = {category_id: j for j, category_id in enumerate(categories)}
    if len(column) != len(categories):
        raise ValidationError("category list must not contain duplicates")
    for gt in gts:
        if gt.image_id != image_id:
            raise ValidationError(
                f"ground truth for image {gt.image_id!r} passed while building "
                f"labels for image {image_id!r}"
            )
        if verification.status(image_id, gt.category_id) != POSITIVE:
            raise ValidationError(
                f"ground-truth category {gt.category_id!r} on image {image_id!r} "
                f"is not positively verified"
            )
    statuses = np.array(
        [verification.status(image_id, c) for c in categories], dtype=np.int8
    )
    background_row = np.where(statuses != 0, np.int8(-1), np.int8(0))
    values = np.empty((len(assignment), len(categories)), dtype=np.int8)
    for i, gt_index in enumerate(assignment.gt_indices):
        values[i] = background_row
        if gt_index is not None:
            if not 0 <= gt_index < len(gts):
                raise ValidationError(f"assignment references ground truth {gt_index}")
            assigned_category = gts[gt_index].category_id
            if assigned_category not in column:
                raise ValidationError(
                    f"assigned category {assigned_category!r} is missing from the "
                    f"category list"
                )
            values[i, column[assigned_category]] = 1
    return LabelMatrix(values, categories)


def classification_loss(logits, labels) -> float:
    """Sum of per-entry sigmoid cross entropy, skipping entries labeled 0.

    Entries labeled +1 contribute -log(sigmoid(x)), entries labeled -1
    contribute -log(1 - sigmoid(x)); both are evaluated as a numerically
    stable softplus so logits far beyond +-50 neither overflow nor lose the
    result to NaN.
    """
    if isinstance(labels, LabelMatrix):
        label_values = labels.values
    else:
        label_values = np.asarray(labels)
        if not np.isin(label_values, (-1, 0, 1)).all():
            raise ValidationError("labels must be -1, 0 or 1")
    x = np.asarray(logits, dtype=np.float64)
    if x.shape != label_values.shape:
        raise ValidationError(
            f"logit shape {x.shape} does not match label shape {label_values.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise ValidationError("logits must be finite")
    # softplus(t) = max(t, 0) + log1p(exp(-|t|)); t = -x for +1, t = +x for -1.
    t = np.concatenate((-x[label_values == 1], x[label_values == -1]))
    if t.size == 0:
        return 0.0
    per_entry = np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))
    return float(np.sum(per_entry))
