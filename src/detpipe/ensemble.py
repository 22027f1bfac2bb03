"""Two-stage suppression for multi-model prediction ensembling.

Stage one suppresses each model's predictions class-wise; stage two groups
the concatenated survivors by overlap within each (image, category) stratum
and emits one representative per group: the most confident member's box and
score, with a confidence- and proximity-weighted average mask.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import _check_iou_threshold, _mask_from_segments, _segments, box_iou
from .records import Prediction

__all__ = [
    "PredictionGroup",
    "nms",
    "group_predictions",
    "fuse_group",
    "ensemble",
]


@dataclass(frozen=True)
class PredictionGroup:
    """Overlapping same-category predictions, seeded by the most confident one.

    Members keep their concatenation order; seed_index points at the member
    with maximal score (earliest wins ties).
    """

    members: tuple[Prediction, ...]
    seed_index: int

    def __post_init__(self) -> None:
        if not self.members:
            raise ValidationError("a prediction group must have at least one member")
        if not 0 <= self.seed_index < len(self.members):
            raise ValidationError(f"seed index {self.seed_index} out of range")
        seed = self.members[self.seed_index]
        for index, member in enumerate(self.members):
            if (member.image_id, member.category_id) != (seed.image_id, seed.category_id):
                raise ValidationError("group members must share image and category")
            if member.score > seed.score or (
                member.score == seed.score and index < self.seed_index
            ):
                raise ValidationError("seed must be the earliest maximal-score member")

    @property
    def seed(self) -> Prediction:
        return self.members[self.seed_index]


def _strata(predictions: Sequence[Prediction]):
    """Indices grouped by (image_id, category_id), strata in sorted key order."""
    buckets: dict[tuple[str, str], list[int]] = {}
    for index, p in enumerate(predictions):
        buckets.setdefault((p.image_id, p.category_id), []).append(index)
    for key in sorted(buckets):
        yield buckets[key]


def nms(predictions: Sequence[Prediction], iou_threshold: float = 0.5) -> list[Prediction]:
    """Greedy class-wise non-maximum suppression.

    Within each (image, category) stratum, walk predictions by descending
    score (ties keep input order) and keep one only if its IoU with every
    already-kept box is below the threshold.  Output is sorted by
    (image_id, category_id, descending score).
    """
    _check_iou_threshold(iou_threshold)
    kept: list[Prediction] = []
    for stratum in _strata(predictions):
        order = sorted(stratum, key=lambda i: (-predictions[i].score, i))
        kept_boxes = []
        for index in order:
            box = predictions[index].box
            if all(box_iou(box, other) < iou_threshold for other in kept_boxes):
                kept_boxes.append(box)
                kept.append(predictions[index])
    return kept


def group_predictions(
    predictions: Sequence[Prediction], iou_threshold: float = 0.5
) -> list[PredictionGroup]:
    """Partition concatenated predictions into overlap groups.

    Greedy within each (image, category) stratum: the highest-scoring
    unclaimed prediction seeds a group and claims every unclaimed prediction
    whose IoU with it reaches the threshold.  Claimed members never seed.
    """
    _check_iou_threshold(iou_threshold)
    groups: list[PredictionGroup] = []
    for stratum in _strata(predictions):
        order = sorted(stratum, key=lambda i: (-predictions[i].score, i))
        claimed: set[int] = set()
        for seed_idx in order:
            if seed_idx in claimed:
                continue
            seed_box = predictions[seed_idx].box
            member_indices = [seed_idx]
            claimed.add(seed_idx)
            for other in stratum:
                if other in claimed:
                    continue
                if box_iou(predictions[other].box, seed_box) >= iou_threshold:
                    member_indices.append(other)
                    claimed.add(other)
            member_indices.sort()
            groups.append(
                PredictionGroup(
                    members=tuple(predictions[i] for i in member_indices),
                    seed_index=member_indices.index(seed_idx),
                )
            )
    return groups


def fuse_group(group: PredictionGroup) -> Prediction:
    """Collapse a group into its representative prediction.

    A group without masks is represented by its seed.  Otherwise box and
    score come from the seed, and the fused mask is the per-pixel average
    weighted by score * IoU(member, seed), binarized at 0.5; all members must
    then have masks of identical size.
    """
    seed = group.seed
    with_mask = [m for m in group.members if m.mask is not None]
    if not with_mask:
        return seed
    if len(with_mask) != len(group.members):
        raise ValidationError("group mixes masked and mask-less predictions")
    size = (with_mask[0].mask.width, with_mask[0].mask.height)
    for member in with_mask:
        if (member.mask.width, member.mask.height) != size:
            raise ValidationError(
                f"group mask dimensions differ: {size} vs "
                f"({member.mask.width}, {member.mask.height})"
            )
    # Per segment of the members' common run boundaries, not per pixel: each
    # segment gets exactly the float operations each of its pixels would.
    lengths, bits = _segments([m.mask for m in group.members])
    accumulator = np.zeros(len(lengths), dtype=np.float64)
    total_weight = 0.0
    for member, member_bits in zip(group.members, bits):
        weight = member.score * box_iou(member.box, seed.box)
        accumulator += weight * member_bits
        total_weight += weight
    if total_weight > 0.0:
        soft = accumulator / total_weight
    else:
        # All-zero scores leave the weights degenerate; fall back to a plain mean.
        soft = sum(bits, start=np.zeros(len(lengths), dtype=np.float64)) / len(group.members)
    fused = _mask_from_segments(size[0], size[1], lengths, np.clip(soft, 0.0, 1.0) >= 0.5)
    return Prediction(seed.image_id, seed.category_id, seed.score, seed.box, fused)


def ensemble(
    prediction_sets: Sequence[Sequence[Prediction]],
    iou_threshold: float = 0.5,
) -> list[Prediction]:
    """Suppress each model's predictions, concatenate in set order, group the
    concatenation, and fuse each group.  Output is sorted by
    (image_id, category_id, descending score)."""
    _check_iou_threshold(iou_threshold)
    if not prediction_sets:
        raise ValidationError("ensemble needs at least one prediction set")
    concatenated: list[Prediction] = []
    for model_predictions in prediction_sets:
        concatenated.extend(nms(model_predictions, iou_threshold))
    groups = group_predictions(concatenated, iou_threshold)
    return [fuse_group(group) for group in groups]
