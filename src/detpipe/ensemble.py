"""Two-stage suppression for multi-model prediction ensembling.

Stage one suppresses each model's predictions class-wise; stage two groups
the concatenated survivors by overlap within each (image, category) stratum
and emits one representative per group: the most confident member's box and
score, with a confidence- and proximity-weighted average mask.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import _areas, _check_iou_threshold, _iou, _mask_from_segments, _segments, box_iou
from .records import Prediction
from .table import PredictionTable, Predictions, as_table, select

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


def _suppresses(iou: np.ndarray, iou_threshold: float) -> np.ndarray:
    # A candidate survives only an IoU below the threshold with every kept box.
    return ~(iou < iou_threshold)


def _claims(iou: np.ndarray, iou_threshold: float) -> np.ndarray:
    # A seed claims the unclaimed predictions whose IoU with it reaches the threshold.
    return iou >= iou_threshold


# (other, seed) pairs whose IoUs one step of _greedy computes at a time,
# which bounds its box and IoU temporaries.
_PAIR_BLOCK = 4096


def _greedy(table: PredictionTable, iou_threshold: float, covers) -> tuple[np.ndarray, np.ndarray]:
    """Greedy overlap resolution within each (image, category) stratum.

    Returns the rows in stratum order, by (image_id, category_id, descending
    score, row index), and for each position in that order the position of
    the seed that covers it (its own for a seed).  Within a stratum the first
    uncovered position seeds and covers every uncovered position of the
    stratum whose IoU with it passes `covers`.  All strata advance together,
    one seed each per step; a stratum with one uncovered member needs no IoU.
    A step's pairs are compared _PAIR_BLOCK at a time, their boxes gathered
    from the table's rows through the order.
    """
    order = np.lexsort((-table.scores, table.category_codes, table.image_codes))
    n = len(order)
    images, categories = table.image_codes[order], table.category_codes[order]
    starts = np.ones(n, dtype=bool)
    starts[1:] = (images[1:] != images[:-1]) | (categories[1:] != categories[:-1])
    del images, categories
    stratum = np.cumsum(starts)
    owner = np.arange(n)
    uncovered = np.arange(n)
    while len(uncovered):
        seeds = np.ones(len(uncovered), dtype=bool)
        seeds[1:] = stratum[uncovered[1:]] != stratum[uncovered[:-1]]
        seed_of = uncovered[seeds][np.cumsum(seeds) - 1]
        others, seed_of = uncovered[~seeds], seed_of[~seeds]
        covered = np.empty(len(others), dtype=bool)
        for first in range(0, len(others), _PAIR_BLOCK):
            block = slice(first, first + _PAIR_BLOCK)
            a, b = table.boxes[order[others[block]]], table.boxes[order[seed_of[block]]]
            covered[block] = covers(_iou(a, _areas(a), b, _areas(b)), iou_threshold)
        owner[others[covered]] = seed_of[covered]
        uncovered = others[~covered]
    return order, owner


def _groups(
    order: np.ndarray, owner: np.ndarray, positions: np.ndarray
) -> list[tuple[int, list[int]]]:
    """(seed row, member rows in row order) of each group that has a member
    at one of `positions` in `order`, in seed order; only those members."""
    if not len(positions):
        return []
    rows, owners = order[positions], owner[positions]
    by_group = np.lexsort((rows, owners))
    seeds = owners[by_group]
    cuts = (np.flatnonzero(seeds[1:] != seeds[:-1]) + 1).tolist()
    firsts, ends = [0, *cuts], [*cuts, len(rows)]
    members = rows[by_group].tolist()
    return [
        (seed, members[first:end])
        for seed, first, end in zip(order[seeds[firsts]].tolist(), firsts, ends)
    ]


def nms(predictions: Predictions, iou_threshold: float = 0.5) -> list[Prediction] | PredictionTable:
    """Greedy class-wise non-maximum suppression.

    Within each (image, category) stratum, walk predictions by descending
    score (ties keep input order) and keep one only if its IoU with every
    already-kept box is below the threshold.  Output is sorted by
    (image_id, category_id, descending score): a table for a table, else a
    list of the given rows.
    """
    _check_iou_threshold(iou_threshold)
    order, owner = _greedy(as_table(predictions), iou_threshold, _suppresses)
    return select(predictions, order[owner == np.arange(len(owner))])


def group_predictions(
    predictions: Predictions, iou_threshold: float = 0.5
) -> list[PredictionGroup]:
    """Partition concatenated predictions into overlap groups.

    Greedy within each (image, category) stratum: the highest-scoring
    unclaimed prediction seeds a group and claims every unclaimed prediction
    whose IoU with it reaches the threshold.  Claimed members never seed.
    Groups come stratum by stratum in sorted key order, seeds by descending
    score within a stratum.  Members are the given rows, or a table's row
    views.
    """
    _check_iou_threshold(iou_threshold)
    table = as_table(predictions)
    order, owner = _greedy(table, iou_threshold, _claims)
    rows = table.rows() if table is predictions else predictions
    return [
        PredictionGroup(tuple(map(rows.__getitem__, members)), members.index(seed))
        for seed, members in _groups(order, owner, np.arange(len(order)))
    ]


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
    prediction_sets: Iterable[Predictions],
    iou_threshold: float = 0.5,
) -> list[Prediction] | PredictionTable:
    """Suppress each model's predictions, concatenate in set order, group the
    concatenation as `group_predictions` does, and fuse each group as
    `fuse_group` does.  A group without masks is its seed row, taken from the
    concatenation; only a group with a masked member builds its rows and goes
    through `fuse_group`, whose mask replaces the seed's.  Output is sorted by
    (image_id, category_id, descending score): a table when every set is a
    table, else a list of its rows.

    The sets are taken one at a time, and only each one's survivors are kept
    before the next is asked for, so a generator of sets is held one set at
    a time.  With an invalid threshold every set is still taken, so an error
    raised while producing one comes first."""
    sets = iter(prediction_sets)
    try:
        _check_iou_threshold(iou_threshold)
    except ValidationError:
        for _ in sets:
            pass
        raise
    survivors, all_tables = [], True
    for predictions in sets:
        survivors.append(nms(as_table(predictions), iou_threshold))
        all_tables = all_tables and isinstance(predictions, PredictionTable)
        # Unreferenced before the next set is produced.
        del predictions
    if not survivors:
        raise ValidationError("ensemble needs at least one prediction set")
    concatenated = PredictionTable.concat(survivors)
    del survivors
    order, owner = _greedy(concatenated, iou_threshold, _claims)
    seeds = owner == np.arange(len(owner))
    fused = concatenated.take(order[seeds])
    has_mask = np.array([mask is not None for mask in concatenated.masks], dtype=bool)
    # By position in `order`: whether the group seeded there has a masked member.
    masked = np.zeros(len(owner), dtype=bool)
    masked[owner[has_mask[order]]] = True
    slots = np.flatnonzero(masked[seeds]).tolist()
    for slot, (seed, rows) in zip(slots, _groups(order, owner, np.flatnonzero(masked[owner]))):
        group = PredictionGroup(tuple(map(concatenated.row, rows)), rows.index(seed))
        fused.masks[slot] = fuse_group(group).mask
    return fused if all_tables else fused.rows()
