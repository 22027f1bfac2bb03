"""Submission-stage filters: small-mask removal and byte-budget trimming."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .fileio import _prediction_lines, empty_predictions_size
from .records import Prediction
from .table import PredictionTable, Predictions, as_table, select

__all__ = [
    "DEFAULT_MIN_MASK_AREA",
    "DEFAULT_BYTE_BUDGET",
    "TrimReport",
    "drop_small_masks",
    "trim_to_budget",
]

# Annotated objects are larger than 40x80 px, so segmentations under 1600 px
# cannot be true positives.
DEFAULT_MIN_MASK_AREA = 1600

# Submission files are capped at 5 GB.
DEFAULT_BYTE_BUDGET = 5_000_000_000


@dataclass(frozen=True)
class TrimReport:
    """Removal counts per category plus the final size against the budget."""

    removed: dict[str, int] = field(default_factory=dict)
    final_bytes: int = 0
    budget: int = 0

    def __post_init__(self) -> None:
        if self.final_bytes > self.budget:
            raise ValidationError(
                f"final size {self.final_bytes} exceeds the budget {self.budget}"
            )
        if any(count < 0 for count in self.removed.values()):
            raise ValidationError("removal counts must be non-negative")
        object.__setattr__(self, "removed", dict(self.removed))

    @property
    def total_removed(self) -> int:
        return sum(self.removed.values())


def _kept_mask_rows(table: PredictionTable, min_area: int) -> np.ndarray:
    return np.flatnonzero(~table.masks.masked() | (table.masks.areas() >= min_area))


def drop_small_masks(
    predictions: Predictions, min_area: int = DEFAULT_MIN_MASK_AREA
) -> list[Prediction] | PredictionTable:
    """Remove exactly the predictions whose mask covers fewer than min_area
    pixels; box-only predictions always pass.  Order is preserved; a table
    gives a table, rows a list."""
    return select(predictions, _kept_mask_rows(as_table(predictions), min_area))


def _trim(
    table: PredictionTable, sizes: np.ndarray, max_bytes: int
) -> tuple[np.ndarray, TrimReport]:
    """The rows trim_to_budget keeps, in row order, and its report, given
    each row's byte length in the written file.

    The greedy removal order is known up front: a category's k-th lowest
    prediction leaves when k predictions of it remain, and among removals at
    the same remaining count the smallest category id goes first.  So sort
    every row by (its category's remaining count when it leaves, descending;
    category id) and remove the shortest prefix that frees enough bytes.
    """
    header_bytes = empty_predictions_size()
    if max_bytes < header_bytes:
        raise ValidationError(
            f"byte budget {max_bytes} is smaller than the header ({header_bytes} bytes)"
        )
    total = header_bytes + int(sizes.sum())
    n = len(table)
    codes = table.category_codes
    # Per category by descending score, ties by row index: the last leaves first.
    order = np.lexsort((-table.scores, codes))
    ordered_codes = codes[order]
    starts = np.ones(n, dtype=bool)
    starts[1:] = ordered_codes[1:] != ordered_codes[:-1]
    positions = np.arange(n)
    # A row's rank in that order is its category's remaining count, less one,
    # when the row leaves.
    rank = positions - np.maximum.accumulate(np.where(starts, positions, 0))
    removal = order[np.lexsort((ordered_codes, -rank))]
    removed = removal[:0]
    if total > max_bytes:
        freed = np.cumsum(sizes[removal])
        count = int(np.searchsorted(freed, total - max_bytes)) + 1
        removed = removal[:count]
        total -= int(freed[count - 1])
    present = np.bincount(codes, minlength=len(table.category_ids))
    counts = np.bincount(codes[removed], minlength=len(table.category_ids))
    report = TrimReport(
        removed={table.category_ids[c]: int(counts[c]) for c in np.flatnonzero(present)},
        final_bytes=total,
        budget=max_bytes,
    )
    keep = np.ones(n, dtype=bool)
    keep[removed] = False
    return np.flatnonzero(keep), report


def trim_to_budget(
    predictions: Predictions, max_bytes: int = DEFAULT_BYTE_BUDGET
) -> tuple[list[Prediction] | PredictionTable, TrimReport]:
    """Drop predictions until the serialized file fits in max_bytes.

    One prediction is removed per step: from the category with the most
    remaining predictions (ties: lexicographically smallest category id), its
    lowest-score prediction goes first (ties: latest in input order).
    Survivors keep their input order: a table for a table, else a list.
    """
    table = as_table(predictions)
    # Rows are sized from the row ends of the lines the writer copies.  The
    # survivors carry their lines, gathered by take when the given table
    # holds them, else here: the given table may be shared, so it is left
    # as it is.
    lines = _prediction_lines(table)
    kept, report = _trim(table, lines.sizes(), max_bytes)
    survivors = select(predictions, kept)
    if isinstance(survivors, PredictionTable) and survivors.lines is None:
        survivors.lines = lines.take(kept)
    return survivors, report
