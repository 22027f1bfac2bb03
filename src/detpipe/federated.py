"""Label assignment under federated annotation semantics.

Covers the whole chain from raw verification tables to the masked sigmoid
cross-entropy classification loss: hierarchy expansion of verifications,
RoI-to-ground-truth assignment, the {-1, 0, +1} label matrix, and the loss
itself.  Unverified categories are never penalized: their label is 0 and
their logits are ignored.  Verifications are one type, the coded
``VerificationTable``: expansion takes one and gives one, and the label
matrix looks its statuses up in it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import Box, _best_overlaps, _check_iou_threshold
from .records import NEGATIVE, POSITIVE, Hierarchy, VerificationTable
from .table import GroundTruth, GroundTruthTable, as_table

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


def _contains(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Whether each key is in sorted_keys."""
    if not len(sorted_keys):
        return np.zeros(len(keys), dtype=bool)
    at = np.searchsorted(sorted_keys, keys)
    return sorted_keys[np.minimum(at, len(sorted_keys) - 1)] == keys


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The sorted distinct keys."""
    keys = np.sort(keys)
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))] if len(keys) else keys


def expand_verification(table: VerificationTable, hierarchy: Hierarchy) -> VerificationTable:
    """Close a verification table over the category hierarchy, over the
    codes of its pairs.

    A positive verification implies positives for all ancestors (the present
    subclass entails the superclass); a negative implies negatives for all
    descendants (an absent superclass rules out every subclass).  A pair
    with both signs is a conflict, and every conflict is reported in
    (image_id, category_id) order.  The result holds the positives, then the
    negatives, each in that order, and is a fixed point: expanding it again
    changes nothing.  The table keeps its closure: a later call with an
    equal hierarchy returns the same object, with its status lookup, and a
    table whose expansion raises keeps nothing from that call.
    """
    kept = table._closure
    if kept is not None and kept[0] == hierarchy:
        return kept[1]
    images, image_codes = table.image_ids, table.image_codes
    named, named_codes = table.category_ids, table.category_codes
    positive = table.signs == POSITIVE
    # Closure 2c + 1 is named[c] and its ancestors, closure 2c named[c] and
    # its descendants; each closure an entry uses is walked once.
    closure = named_codes.astype(np.int64) * 2 + positive
    closures: list[tuple[str, ...]] = [()] * (2 * len(named))
    for k in _distinct(closure).tolist():
        c = named[k // 2]
        closures[k] = (c, *(hierarchy.ancestors(c) if k % 2 else hierarchy.descendants(c)))
    categories = tuple(sorted({c for members in closures for c in members}))
    code = {value: index for index, value in enumerate(categories)}
    lengths = np.fromiter(map(len, closures), np.int64, len(closures))
    flat = np.fromiter(
        (code[c] for members in closures for c in members), np.int64, int(lengths.sum())
    )
    # Entry e expands to its image with each code of its closure; a key is
    # image code * len(categories) + category code, so key order is
    # (image_id, category_id) order.
    n = len(categories)
    counts = lengths[closure]
    ends = np.cumsum(counts)
    within = np.arange(ends[-1] if len(ends) else 0) - np.repeat(ends - counts, counts)
    keys = np.repeat(image_codes.astype(np.int64) * n, counts)
    keys += flat[np.repeat((np.cumsum(lengths) - lengths)[closure], counts) + within]
    positive = np.repeat(positive, counts)
    positives, negatives = _distinct(keys[positive]), _distinct(keys[~positive])
    conflicts = positives[_contains(negatives, positives)].tolist()
    if conflicts:
        listing = "; ".join(
            f"image {images[key // n]!r}, category {categories[key % n]!r}" for key in conflicts
        )
        raise ValidationError(
            f"hierarchy expansion produces conflicting verifications: {listing}"
        )
    keys = np.concatenate((positives, negatives))
    signs = np.repeat(np.array([POSITIVE, NEGATIVE], np.int8), [len(positives), len(negatives)])
    image_codes, category_codes = (keys // n).astype(np.int32), (keys % n).astype(np.int32)
    expanded = VerificationTable.from_columns(
        images, categories, image_codes, category_codes, signs
    )
    table._closure = (hierarchy, expanded)
    return expanded


def assign_rois(
    rois: Sequence[Box] | np.ndarray,
    gts: GroundTruth,
    iou_threshold: float = 0.5,
) -> Assignment:
    """Assign each RoI, a box or a row of ``[N, 4]`` corners, to the ground
    truth of maximal IoU, if it clears the threshold; ties break toward the
    smallest ground-truth index."""
    _check_iou_threshold(iou_threshold)
    ious, indices = _best_overlaps(rois, as_table(gts, GroundTruthTable).boxes)
    indices = np.where(ious >= iou_threshold, indices, -1).tolist()
    return Assignment(tuple(i if i >= 0 else None for i in indices), tuple(ious.tolist()))


def build_label_matrix(
    assignment: Assignment,
    gts: GroundTruth,
    verification: VerificationTable,
    image_id: str,
    categories: Sequence[str],
) -> LabelMatrix:
    """Build the per-RoI label rows for one image.

    Background rows get -1 for every verified category and 0 elsewhere; an
    assigned row additionally gets +1 in its ground truth's category column.
    Every ground-truth category must be positively verified on the image.
    Ground truth may be given as a table or as records.
    """
    gts = list(gts)
    categories = tuple(categories)
    column = {category_id: j for j, category_id in enumerate(categories)}
    if len(column) != len(categories):
        raise ValidationError("category list must not contain duplicates")
    gt_statuses = _on_image(verification, image_id, [gt.category_id for gt in gts])
    for gt, status in zip(gts, gt_statuses.tolist()):
        if gt.image_id != image_id:
            raise ValidationError(
                f"ground truth for image {gt.image_id!r} passed while building "
                f"labels for image {image_id!r}"
            )
        if status != POSITIVE:
            raise ValidationError(
                f"ground-truth category {gt.category_id!r} on image {image_id!r} "
                f"is not positively verified"
            )
    statuses = _on_image(verification, image_id, categories)
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


def _on_image(
    verification: VerificationTable, image_id: str, category_ids: Sequence[str]
) -> np.ndarray:
    """The status of each category on one image."""
    each = np.arange(len(category_ids))
    return verification.statuses((image_id,), np.zeros_like(each), category_ids, each)


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
