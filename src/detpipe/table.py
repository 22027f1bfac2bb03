"""Predictions and ground-truth files held column by column.

``PredictionTable`` stores one row per prediction as a coded table
(``records._CodedTable``): image and category ids interned to int32 codes
into sorted vocabularies of exactly the ids its rows use, scores as float64
``[N]``, boxes as float64 ``[N, 4]`` (x_min, y_min, x_max, y_max) and one
``BinaryMask | None`` per row.  ``Prediction`` is the row type; ``rows()``,
``row(i)`` and iteration build row views on demand.  ``GroundTruthTable``
is the same table without scores, with ``GroundTruthInstance`` rows.  The
prediction functions of ``fileio``, ``ensemble``, ``experts`` and
``postprocess`` take a table or a list of rows: they convert a list with
``as_table`` and run the same table code, and those that return predictions
hand back a table for a table (``select``).

A verification file is a ``records.VerificationTable`` and a RoI pool a
``records.RoiPool``, coded tables too.  The parsers intern each id column
once per file (``records._Codes``).  The CLI's stages pass these tables from
parse to write and to ``evaluate``, ``assign``, the RoI sampler and
``filter-expert``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .geometry import _corners
from .records import GroundTruthInstance, Prediction, _CodedTable, _intern

__all__ = [
    "PredictionTable",
    "Predictions",
    "GroundTruthTable",
    "as_table",
    "select",
]


# Rows whose lines ``_RowLines.take`` copies per step, which bounds the
# slices and copies of single lines it holds at once.
_TAKE_ROWS = 4096


class _RowLines:
    """A table's rows as the lines of its file: each row's CSV line, UTF-8
    encoded with its LF, back to back in ``data``, and ``ends``, the int64
    offset in data where each row's line ends.  Never changed once built,
    so tables share one."""

    __slots__ = ("data", "ends")

    def __init__(self, data: bytes | bytearray, ends: np.ndarray) -> None:
        self.data = data
        self.ends = ends

    def sizes(self) -> np.ndarray:
        """Each row's byte length in the file, its LF included."""
        return np.diff(self.ends, prepend=0)

    def take(self, indices: np.ndarray) -> _RowLines:
        """The lines of the rows at indices, in that order: these lines for
        every row in order, else copied _TAKE_ROWS rows at a time into one
        buffer."""
        n = len(self.ends)
        if len(indices) == n and np.array_equal(indices, np.arange(n)):
            return self
        stops = self.ends[indices]
        starts = np.where(indices > 0, self.ends[indices - 1], 0)
        ends = np.cumsum(stops - starts)
        data = bytearray(int(ends[-1]) if len(ends) else 0)
        end = 0
        for first in range(0, len(indices), _TAKE_ROWS):
            rows = slice(first, first + _TAKE_ROWS)
            lines = map(slice, starts[rows].tolist(), stops[rows].tolist())
            chunk = b"".join(map(self.data.__getitem__, lines))
            data[end : end + len(chunk)] = chunk
            end += len(chunk)
        return _RowLines(data, ends)


class _Annotations(_CodedTable):
    """The columns that predictions and ground truth share: image and
    category ids, boxes and masks, and scores when the table has them."""

    __slots__ = ()

    @classmethod
    def from_rows(cls, rows: Sequence):
        """A table of row records, which are checked already."""
        images, image_codes = _intern([row.image_id for row in rows])
        categories, category_codes = _intern([row.category_id for row in rows])
        scores = (
            [np.fromiter((row.score for row in rows), np.float64, len(rows))]
            if "scores" in cls._columns
            else []
        )
        return cls(
            images,
            categories,
            image_codes,
            category_codes,
            *scores,
            _corners([row.box for row in rows]),
            [row.mask for row in rows],
        )


class PredictionTable(_Annotations):
    """Columns of a predictions file.  The constructors trust their columns:
    the parser builds a table only of rows that pass the record checks,
    ``from_rows`` takes rows that are records already, and ``take`` and
    ``concat`` take rows of other tables.

    ``lines`` is None, or the rows' lines as they are written
    (``_RowLines``): one buffer of every row's UTF-8 CSV line with
    its LF, formatted a chunk of rows at a time, and int64 row ends.  Only
    the formatter sets it: ``trim`` on its survivors, and the CLI on each
    table it writes, which a pipeline hands to the later stages that read
    the file.  ``take`` gathers it a chunk of rows at a time, or shares it
    when it takes every row in order; ``trim`` sizes rows from its row ends;
    and the writer copies it after the header instead of formatting the
    rows.
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
    _columns = ("scores", "boxes", "masks", "lines")
    _row_fields = ("image", "category", "scores", "boxes", "masks")
    _row = Prediction

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


class GroundTruthTable(_Annotations):
    """Columns of a ground-truth file: a ``PredictionTable`` without scores
    or lines."""

    __slots__ = ("image_ids", "category_ids", "image_codes", "category_codes", "boxes", "masks")
    _columns = ("boxes", "masks")
    _row_fields = ("image", "category", "boxes", "masks")
    _row = GroundTruthInstance


# A predictions argument: a table, or rows.
Predictions = Sequence[Prediction] | PredictionTable
# A ground-truth argument: a table, or rows.
GroundTruth = Sequence[GroundTruthInstance] | GroundTruthTable


def as_table(rows: Predictions | GroundTruth, kind: type[_Annotations] = PredictionTable):
    """The table itself, or a table of kind of the given rows."""
    return rows if isinstance(rows, kind) else kind.from_rows(rows)


def select(rows: Predictions | GroundTruth, indices: np.ndarray):
    """The rows at indices, in that order: a table for a table, else a list
    of the caller's own row objects."""
    if isinstance(rows, _CodedTable):
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
