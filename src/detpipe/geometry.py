"""Axis-aligned boxes and their IoU, one box at a time or over arrays; the
one best-IoU rule for RoIs; and run-length-encoded binary mask rasters.

A ``BinaryMask`` record holds its runs as a tuple of ints; a table holds
its masks' runs as one int64 array (``table._Masks``).  Fusion and mask
IoU work on int64 run arrays (``_segments``, ``_mask_from_segments`` and
``_run_iou``): a record's runs, or a row's slice of a table's runs.

Everything else in the toolkit builds on these primitives. All operations are
pure functions on immutable values and safe to call concurrently.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "Box",
    "BinaryMask",
    "box_area",
    "box_iou",
    "mask_area",
    "mask_decode",
    "mask_encode",
    "mask_iou",
]

# Boxes and masks are frozen, so their constructors set fields through
# object.__setattr__, bound once here to save a lookup per field.
_set = object.__setattr__

_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True, slots=True, init=False)
class Box:
    """Axis-aligned rectangle in absolute, real-valued pixel coordinates."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __init__(self, x_min: float, y_min: float, x_max: float, y_max: float) -> None:
        # Ordered floats with a finite sum (so each one is finite) are stored
        # as given; anything else is converted and checked field by field.
        if not (
            type(x_min) is type(y_min) is type(x_max) is type(y_max) is float
            and x_min <= x_max
            and y_min <= y_max
            and math.isfinite(x_min + y_min + x_max + y_max)
        ):
            x_min = _coordinate("x_min", x_min)
            y_min = _coordinate("y_min", y_min)
            x_max = _coordinate("x_max", x_max)
            y_max = _coordinate("y_max", y_max)
            if x_max < x_min or y_max < y_min:
                raise ValidationError(
                    f"box corners are inverted: ({x_min}, {y_min}, {x_max}, {y_max})"
                )
        _set(self, "x_min", x_min)
        _set(self, "y_min", y_min)
        _set(self, "x_max", x_max)
        _set(self, "y_max", y_max)


def _coordinate(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"box coordinate {name} must be finite, got {value!r}")
    return value


def _check_integer(name: str, value: int) -> int:
    try:
        integral = not isinstance(value, bool) and value == int(value)
    except (TypeError, ValueError, OverflowError):  # None, "x", nan, inf
        integral = False
    if not integral:
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_dimension(name: str, value: int) -> int:
    value = _check_integer(name, value)
    if value < 1:
        raise ValidationError(f"{name} must be positive, got {value}")
    return value


@dataclass(frozen=True, slots=True, init=False)
class BinaryMask:
    """Full-image binary raster stored as row-major run lengths.

    Runs alternate between 0-pixels and 1-pixels, starting with 0-pixels; a
    leading zero-length run lets a mask start with a 1-pixel.  Only the first
    run may be zero-length, so every valid mask is in canonical form.  A
    mask has at most int64's maximum of pixels, so its runs and their sums
    fit the int64 arrays that fusion and mask IoU use.
    """

    width: int
    height: int
    runs: tuple[int, ...]

    def __init__(self, width: int, height: int, runs: Sequence[int]) -> None:
        width = _check_dimension("mask width", width)
        height = _check_dimension("mask height", height)
        if width * height > _INT64_MAX:
            raise ValidationError(
                f"mask width*height = {width * height} is above the int64 maximum"
            )
        runs = tuple(runs)
        # The parser passes ints; anything else is checked run by run.
        if set(map(type, runs)) != {int}:
            runs = tuple(_check_integer("mask run", run) for run in runs)
        if not runs:
            raise ValidationError("mask runs must not be empty")
        if runs[0] < 0 or min(runs[1:], default=1) < 1:
            raise ValidationError(f"mask runs after the first must be >= 1, got {runs}")
        total = sum(runs)
        if total != width * height:
            raise ValidationError(
                f"mask runs sum to {total}, expected width*height = {width * height}"
            )
        _set(self, "width", width)
        _set(self, "height", height)
        _set(self, "runs", runs)


def _mask(width: int, height: int, runs: tuple[int, ...]) -> BinaryMask:
    """The BinaryMask of fields that passed its checks already, as a
    table's mask column holds them: not checked again."""
    mask = object.__new__(BinaryMask)
    _set(mask, "width", width)
    _set(mask, "height", height)
    _set(mask, "runs", runs)
    return mask


def _runs(mask: BinaryMask) -> np.ndarray:
    """A mask's runs as an int64 array."""
    return np.asarray(mask.runs, dtype=np.int64)


def box_area(box: Box) -> float:
    """Area of a box; zero for degenerate boxes."""
    return (box.x_max - box.x_min) * (box.y_max - box.y_min)


def box_iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes; 0.0 when the union is empty."""
    inter_w = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    inter_h = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    inter = inter_w * inter_h if inter_w > 0.0 and inter_h > 0.0 else 0.0
    union = box_area(a) + box_area(b) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def _iou(a: np.ndarray, area_a: np.ndarray, b: np.ndarray, area_b: np.ndarray) -> np.ndarray:
    """box_iou of each row of a with the same row of b, in box_iou's order of
    operations, so every value equals box_iou's bit for bit."""
    with np.errstate(all="ignore"):
        inter_w = np.minimum(a[:, 2], b[:, 2]) - np.maximum(a[:, 0], b[:, 0])
        inter_h = np.minimum(a[:, 3], b[:, 3]) - np.maximum(a[:, 1], b[:, 1])
        inter = np.where((inter_w > 0.0) & (inter_h > 0.0), inter_w * inter_h, 0.0)
        union = area_a + area_b - inter
        return np.where(union <= 0.0, 0.0, inter / union)


def _corners(boxes: Sequence[Box] | np.ndarray) -> np.ndarray:
    """The [N, 4] corners of boxes; an array of corners is its own."""
    if isinstance(boxes, np.ndarray):
        return boxes
    return np.array([(b.x_min, b.y_min, b.x_max, b.y_max) for b in boxes]).reshape(-1, 4)


def _areas(corners: np.ndarray) -> np.ndarray:
    with np.errstate(all="ignore"):
        return (corners[:, 2] - corners[:, 0]) * (corners[:, 3] - corners[:, 1])


def _best_overlaps(
    boxes: Sequence[Box] | np.ndarray, others: Sequence[Box] | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each box's greatest box_iou with any of others, and the index of the
    first of others to reach it (-1 for none).  The best starts at 0.0 and
    moves only on a greater IoU: ties go to the earliest, 0 never matches and
    nan never wins.  Memory grows with the boxes, not with the pairs."""
    a, b = _corners(boxes), _corners(others)
    area_a, area_b = _areas(a), _areas(b)
    best, index = np.zeros(len(a)), np.full(len(a), -1)
    for j in range(len(b)):
        iou = _iou(a, area_a, b[j : j + 1], area_b[j : j + 1])
        better = iou > best
        best[better], index[better] = iou[better], j
    return best, index


def _check_iou_threshold(iou_threshold: float) -> None:
    if not 0.0 < iou_threshold <= 1.0:
        raise ValidationError(f"IoU threshold must be in (0, 1], got {iou_threshold!r}")


def mask_area(mask: BinaryMask) -> int:
    """Number of 1-pixels: the sum of the odd-indexed runs."""
    return sum(mask.runs[1::2])


def mask_decode(mask: BinaryMask) -> np.ndarray:
    """Expand runs into a (height, width) uint8 grid."""
    values = np.zeros(len(mask.runs), dtype=np.uint8)
    values[1::2] = 1
    flat = np.repeat(values, _runs(mask))
    return flat.reshape(mask.height, mask.width)


def mask_encode(grid) -> BinaryMask:
    """Encode a rectangular bit grid into a canonical run-length mask."""
    arr = np.asarray(grid)
    if arr.ndim != 2:
        raise ValidationError(f"mask grid must be two-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError("mask grid must be non-empty")
    if arr.dtype != bool and not np.isin(arr, (0, 1)).all():
        raise ValidationError("mask grid entries must be 0 or 1")
    flat = arr.astype(np.uint8).ravel()
    changes = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    bounds = np.concatenate(([0], changes, [flat.size]))
    lengths = [int(n) for n in np.diff(bounds)]
    runs = [0, *lengths] if flat[0] else lengths
    return BinaryMask(arr.shape[1], arr.shape[0], tuple(runs))


def _segments(runs: Sequence[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Cut the row-major pixel sequence at every run boundary of every mask,
    each given as its int64 runs.

    The masks must share one size.  Returns the length of each segment and,
    per mask, its bit (0 or 1) on each segment: every pixel of a segment has
    the same bit in each mask, so per-pixel work can be done per segment.
    """
    ends = [np.cumsum(r) for r in runs]
    # Sort and drop repeats by hand: np.unique imports numpy.ma on first use.
    bounds = np.sort(np.concatenate(ends))
    steps = np.diff(bounds, prepend=0)
    keep = steps > 0
    lengths = steps[keep]
    starts = bounds[keep] - lengths
    # The run holding a pixel is the number of run ends at or before it.
    return lengths, [np.searchsorted(e, starts, side="right") % 2 for e in ends]


def _mask_from_segments(lengths: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """The canonical int64 runs of the mask whose pixels take bits[i] along
    the i-th segment."""
    firsts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    runs = np.add.reduceat(lengths, firsts)
    return np.concatenate(([0], runs)) if bits[0] else runs


def _run_iou(a: np.ndarray, b: np.ndarray) -> float:
    """mask_iou of two same-size masks given as their int64 runs."""
    lengths, (in_a, in_b) = _segments((a, b))
    inter = int(lengths @ (in_a & in_b))
    union = int(lengths @ (in_a | in_b))
    if union == 0:
        return 0.0
    return inter / union


def mask_iou(a: BinaryMask, b: BinaryMask) -> float:
    """Intersection over union of two same-size masks; 0.0 when both are empty.

    Computed on the runs, so the cost grows with the number of runs, not of pixels.
    """
    if (a.width, a.height) != (b.width, b.height):
        raise ValidationError(
            f"mask dimensions differ: {a.width}x{a.height} vs {b.width}x{b.height}"
        )
    return _run_iou(_runs(a), _runs(b))
