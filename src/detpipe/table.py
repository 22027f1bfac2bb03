"""Predictions, ground-truth and verification files held column by column.

``PredictionTable`` stores one row per prediction in arrays: image and
category ids interned to integer codes (assigned in sorted string order, so
code order is id order), scores as float64 ``[N]``, boxes as float64
``[N, 4]`` (x_min, y_min, x_max, y_max) and one ``BinaryMask | None`` per row.
``Prediction`` is the row type; ``rows()`` and ``row(i)`` build row views on
demand.  The prediction functions of ``fileio``, ``ensemble``, ``experts``
and ``postprocess`` take a table or a list of rows: they convert a list with
``as_table`` and run the same table code, and those that return predictions
hand back a table for a table (``select``).

``GroundTruthTable`` holds a ground-truth file the same way, without
scores; ``GroundTruthInstance`` is its row type.  A verification file is a
``records.VerificationTable``: coded (image, category) pairs and int8 signs.
The parsers intern each id column once per file (``records._Codes``).  The
CLI's stages pass these tables from parse to write and to ``evaluate``,
``assign``, the RoI sampler and ``filter-expert``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .geometry import BinaryMask, Box, _corners
from .records import GroundTruthInstance, Prediction, _intern

__all__ = [
    "PredictionTable",
    "Predictions",
    "GroundTruthTable",
    "as_table",
    "as_ground_truth",
    "ground_truth_rows",
    "select",
]


class PredictionTable:
    """Columns of a predictions file.  The constructors trust their columns:
    the parser builds a table only of rows that pass the record checks,
    ``from_rows`` takes rows that are records already, and ``take`` and
    ``concat`` take rows of other tables.

    ``lines`` is the CSV line of each row, without its LF, or None.  Only
    the formatter sets it: ``trim`` on its survivors, and the CLI on each
    table it writes, which a pipeline hands to the later stages that read
    the file.  ``take`` carries it along, and the writer joins it instead
    of formatting the rows.
    """

    __slots__ = (
        "image_ids",
        "category_ids",
        "image_codes",
        "category_codes",
        "scores",
        "boxes",
        "masks",
        "lines",
    )

    def __init__(
        self,
        image_ids: tuple[str, ...],
        category_ids: tuple[str, ...],
        image_codes: np.ndarray,
        category_codes: np.ndarray,
        scores: np.ndarray,
        boxes: np.ndarray,
        masks: list[BinaryMask | None],
        lines: list[str] | None = None,
    ) -> None:
        self.image_ids = image_ids
        self.category_ids = category_ids
        self.image_codes = image_codes
        self.category_codes = category_codes
        self.scores = scores
        self.boxes = boxes
        self.masks = masks
        self.lines = lines

    @classmethod
    def from_rows(cls, predictions: Sequence[Prediction]) -> PredictionTable:
        images, image_codes = _intern([p.image_id for p in predictions])
        categories, category_codes = _intern([p.category_id for p in predictions])
        return cls(
            images,
            categories,
            image_codes,
            category_codes,
            np.fromiter((p.score for p in predictions), np.float64, len(predictions)),
            _corners([p.box for p in predictions]),
            [p.mask for p in predictions],
        )

    def __len__(self) -> int:
        return len(self.scores)

    def row(self, index: int) -> Prediction:
        x_min, y_min, x_max, y_max = self.boxes[index].tolist()
        return Prediction(
            self.image_ids[self.image_codes[index]],
            self.category_ids[self.category_codes[index]],
            float(self.scores[index]),
            Box(x_min, y_min, x_max, y_max),
            self.masks[index],
        )

    def rows(self) -> list[Prediction]:
        images = list(map(self.image_ids.__getitem__, self.image_codes.tolist()))
        categories = list(map(self.category_ids.__getitem__, self.category_codes.tolist()))
        boxes = [Box(*box) for box in self.boxes.tolist()]
        return list(map(Prediction, images, categories, self.scores.tolist(), boxes, self.masks))

    def take(self, indices: np.ndarray) -> PredictionTable:
        """The rows at the given indices, in that order."""
        picked = indices.tolist()
        return PredictionTable(
            self.image_ids,
            self.category_ids,
            self.image_codes[indices],
            self.category_codes[indices],
            self.scores[indices],
            self.boxes[indices],
            [self.masks[i] for i in picked],
            None if self.lines is None else [self.lines[i] for i in picked],
        )

    @classmethod
    def concat(cls, tables: Sequence[PredictionTable]) -> PredictionTable:
        """The rows of every table, in table order, over one vocabulary."""
        image_ids, image_codes = _merge_codes(
            [t.image_ids for t in tables], [t.image_codes for t in tables]
        )
        category_ids, category_codes = _merge_codes(
            [t.category_ids for t in tables], [t.category_codes for t in tables]
        )
        return cls(
            image_ids,
            category_ids,
            image_codes,
            category_codes,
            np.concatenate([t.scores for t in tables]),
            np.concatenate([t.boxes for t in tables]),
            [mask for t in tables for mask in t.masks],
        )


# A predictions argument: a table, or rows.
Predictions = Sequence[Prediction] | PredictionTable


def as_table(predictions: Predictions) -> PredictionTable:
    """The table itself, or a table of the given rows."""
    if isinstance(predictions, PredictionTable):
        return predictions
    return PredictionTable.from_rows(predictions)


def select(rows: Predictions | GroundTruth, indices: np.ndarray):
    """The rows at indices, in that order: a table for a table, else a list
    of the caller's own row objects."""
    if isinstance(rows, (PredictionTable, GroundTruthTable)):
        return rows.take(indices)
    return [rows[i] for i in indices.tolist()]


def _merge_codes(vocabularies, codes) -> tuple[tuple[str, ...], np.ndarray]:
    """One sorted vocabulary over several, and every codes array recoded to it."""
    merged = tuple(sorted(set().union(*vocabularies)))
    code = {value: index for index, value in enumerate(merged)}
    recoded = [
        np.array([code[value] for value in vocabulary], dtype=np.int32)[old]
        for vocabulary, old in zip(vocabularies, codes)
    ]
    return merged, np.concatenate(recoded)


def _firsts(keys: np.ndarray) -> np.ndarray:
    """The position of each distinct key's first occurrence, in position
    order."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = ordered[1:] != ordered[:-1]
    return np.sort(order[starts])


class GroundTruthTable:
    """Columns of a ground-truth file: image and category codes as in
    ``PredictionTable``, boxes as float64 ``[N, 4]`` and one
    ``BinaryMask | None`` per row.  The constructor trusts its columns: the
    parser builds a table only of rows that pass the record checks."""

    __slots__ = ("image_ids", "category_ids", "image_codes", "category_codes", "boxes", "masks")

    def __init__(
        self,
        image_ids: tuple[str, ...],
        category_ids: tuple[str, ...],
        image_codes: np.ndarray,
        category_codes: np.ndarray,
        boxes: np.ndarray,
        masks: list[BinaryMask | None],
    ) -> None:
        self.image_ids = image_ids
        self.category_ids = category_ids
        self.image_codes = image_codes
        self.category_codes = category_codes
        self.boxes = boxes
        self.masks = masks

    @classmethod
    def from_rows(cls, gts: Sequence[GroundTruthInstance]) -> GroundTruthTable:
        images, image_codes = _intern([g.image_id for g in gts])
        categories, category_codes = _intern([g.category_id for g in gts])
        boxes = _corners([g.box for g in gts])
        return cls(images, categories, image_codes, category_codes, boxes, [g.mask for g in gts])

    def __len__(self) -> int:
        return len(self.boxes)

    def __iter__(self):
        return iter(self.rows())

    def row(self, index: int) -> GroundTruthInstance:
        return GroundTruthInstance(
            self.image_ids[self.image_codes[index]],
            self.category_ids[self.category_codes[index]],
            Box(*self.boxes[index].tolist()),
            self.masks[index],
        )

    def rows(self) -> list[GroundTruthInstance]:
        images = map(self.image_ids.__getitem__, self.image_codes.tolist())
        categories = map(self.category_ids.__getitem__, self.category_codes.tolist())
        boxes = [Box(*box) for box in self.boxes.tolist()]
        return list(map(GroundTruthInstance, images, categories, boxes, self.masks))

    def take(self, indices: np.ndarray) -> GroundTruthTable:
        """The rows at the given indices, in that order."""
        return GroundTruthTable(
            self.image_ids,
            self.category_ids,
            self.image_codes[indices],
            self.category_codes[indices],
            self.boxes[indices],
            [self.masks[i] for i in indices.tolist()],
        )


# A ground-truth argument: a table, or rows.
GroundTruth = Sequence[GroundTruthInstance] | GroundTruthTable


def as_ground_truth(gts: GroundTruth) -> GroundTruthTable:
    """The table itself, or a table of the given rows."""
    if isinstance(gts, GroundTruthTable):
        return gts
    return GroundTruthTable.from_rows(gts)


def ground_truth_rows(gts: GroundTruth) -> Sequence[GroundTruthInstance]:
    """The rows themselves, or the row views of a table."""
    if isinstance(gts, GroundTruthTable):
        return gts.rows()
    return gts

