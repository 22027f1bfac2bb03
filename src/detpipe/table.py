"""Predictions and ground-truth files held column by column.

``PredictionTable`` stores one row per prediction as a coded table
(``records._CodedTable``): image and category ids interned to int32 codes
into sorted vocabularies of exactly the ids its rows use, scores as float64
``[N]``, boxes as float64 ``[N, 4]`` (x_min, y_min, x_max, y_max) and the
masks as one column (``_Masks``): every masked row's runs back to back in
one int64 array, 8 B a run, with int64 row offsets, widths and heights,
24 B a row; a table without a masked row holds no per-row mask state.
``Prediction`` is the row type; ``rows()``, ``row(i)``, iteration and
``masks[i]`` build row views and ``BinaryMask`` views on demand.
``GroundTruthTable`` is the same table without scores, with
``GroundTruthInstance`` rows.  The prediction functions of ``fileio``,
``ensemble``, ``experts`` and ``postprocess`` take a table or a list of
rows: they convert a list with ``as_table`` and run the same table code,
and those that return predictions hand back a table for a table
(``select``).

A verification file is a ``records.VerificationTable`` and a RoI pool a
``records.RoiPool``, coded tables too.  The parsers intern each id column
once per file (``records._Codes``).  The CLI's stages pass these tables from
parse to write and to ``evaluate``, ``assign``, the RoI sampler and
``filter-expert``.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain, compress, repeat

import numpy as np

from .geometry import _INT64_MAX, BinaryMask, _corners, _mask
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


def _mask_text(width: int, height: int, runs: Sequence[int]) -> str:
    """A row's three mask fields: empty for width 0, a row without a mask."""
    return f"{width},{height},{' '.join(map(str, runs))}" if width else ",,"


class _Masks(Sequence):
    """The masks of a table's rows as columns: ``runs``, every masked row's
    runs back to back as int64; ``offsets``, int64 ``[N+1]``, where each
    row's runs start and end in it; and ``widths`` and ``heights``, int64
    ``[N]``, 0 for a row without a mask, which has no runs.  A column
    without a masked row holds only its length, its arrays None.  Item i
    is row i's ``BinaryMask``, built on demand, or None.  The constructors
    trust their columns and keep every column in that one form, so two
    columns of the same masks are equal; a column is never changed once
    built, so tables share one."""

    __slots__ = ("size", "widths", "heights", "offsets", "runs")

    def __init__(self, size: int, widths=None, heights=None, offsets=None, runs=None) -> None:
        self.size = size
        self.widths, self.heights, self.offsets, self.runs = widths, heights, offsets, runs

    @classmethod
    def _of(cls, widths: np.ndarray, heights: np.ndarray, counts: np.ndarray, runs: np.ndarray) -> _Masks:
        """The column of rows of these widths and heights (0 for no mask)
        and numbers of runs, whose runs are given back to back."""
        if not widths.any():
            return cls(len(widths))
        offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(len(widths), widths, heights, offsets, runs)

    @classmethod
    def from_rows(cls, masks: Sequence[BinaryMask | None]) -> _Masks:
        """The column of mask records, which are checked already, or None."""
        held = [mask for mask in masks if mask is not None]
        widths = np.fromiter((0 if m is None else m.width for m in masks), np.int64, len(masks))
        heights = np.fromiter((0 if m is None else m.height for m in masks), np.int64, len(masks))
        counts = np.fromiter((0 if m is None else len(m.runs) for m in masks), np.int64, len(masks))
        runs = np.fromiter(chain.from_iterable(m.runs for m in held), np.int64, int(counts.sum()))
        return cls._of(widths, heights, counts, runs)

    @classmethod
    def from_fields(cls, widths: list[str], heights: list[str], rles: list[str]) -> _Masks | None:
        """The column of a chunk's three mask fields, given as text columns,
        when every row passes BinaryMask's checks: its three fields all
        empty, or all present with numbers read through int() as the row
        parse reads them.  None when a row fails a check; ValueError or
        OverflowError when a number does not parse or does not fit int64.
        Each row's runs are read into one buffer for the chunk, and then
        checked per row with numpy: the first >= 0, the others >= 1, and
        their sum width * height, at most int64's maximum."""
        n = len(rles)
        if rles.count("") == widths.count("") == heights.count("") == n:
            return cls(n)
        masked = list(map(bool, rles))
        if list(map(bool, widths)) != masked or list(map(bool, heights)) != masked:
            return None
        texts = list(compress(rles, masked))
        k = len(texts)
        w, h = (np.fromiter(map(int, compress(c, masked)), np.int64, k) for c in (widths, heights))
        if not (np.all(w >= 1) and np.all(h >= 1) and np.all(w <= _INT64_MAX // h)):
            return None
        counts = np.fromiter(map(str.count, texts, repeat(" ", k)), np.int64, k) + 1
        stops = np.cumsum(counts)
        firsts = stops - counts
        runs = np.empty(int(stops[-1]), dtype=np.int64)
        for text, first, stop in zip(texts, firsts.tolist(), stops.tolist()):
            runs[first:stop] = np.fromiter(map(int, text.split(" ")), np.int64, stop - first)
        valid = runs >= 1
        valid[firsts] = runs[firsts] >= 0
        if not valid.all():
            return None
        sums = np.add.reduceat(runs, firsts) == w * h
        # A row whose runs could pass int64's maximum, and wrap, is summed exactly.
        for i in np.flatnonzero(np.maximum.reduceat(runs, firsts) > _INT64_MAX // counts).tolist():
            sums[i] = sum(runs[firsts[i] : stops[i]].tolist()) == int(w[i]) * int(h[i])
        if not sums.all():
            return None
        full = [np.zeros(n, dtype=np.int64) for _ in range(3)]
        for column, values in zip(full, (w, h, counts)):
            column[masked] = values
        return cls._of(*full, runs)

    @classmethod
    def concat(cls, columns: Sequence[_Masks]) -> _Masks:
        """The rows of every column, in column order."""
        if len(columns) == 1 or all(c.widths is None for c in columns):
            return columns[0] if len(columns) == 1 else cls(sum(map(len, columns)))
        parts = [c._filled() for c in columns]
        widths, heights, offsets, runs = ([part[k] for part in parts] for k in range(4))
        return cls._of(
            np.concatenate(widths),
            np.concatenate(heights),
            np.concatenate([np.diff(o) for o in offsets]),
            np.concatenate(runs),
        )

    def _filled(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The widths, heights, offsets and runs, zeros for a column
        without masks."""
        if self.widths is not None:
            return self.widths, self.heights, self.offsets, self.runs
        zeros = np.zeros(self.size + 1, dtype=np.int64)
        return zeros[1:], zeros[1:], zeros, zeros[:0]

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            if self.widths is None:
                return [None] * len(range(self.size)[index])
            return list(
                map(
                    self._view,
                    self.widths[index].tolist(),
                    self.heights[index].tolist(),
                    self.offsets[:-1][index].tolist(),
                    self.offsets[1:][index].tolist(),
                )
            )
        index = range(self.size)[index]
        return self[index : index + 1][0]

    def fields(self, rows: slice):
        """The mask fields of each row of a slice with a start, as a file
        holds them: ``width,height,runs``, or ``,,`` for a row without a
        mask and for every row of a column without masks."""
        if self.widths is None:
            return repeat(",,", len(range(self.size)[rows]))
        ends = self.offsets[rows.start : rows.stop + 1]
        runs = self.runs[ends[0] : ends[-1]].tolist()
        ends = (ends - ends[0]).tolist()
        lists = map(runs.__getitem__, map(slice, ends, ends[1:]))
        return map(_mask_text, self.widths[rows].tolist(), self.heights[rows].tolist(), lists)

    def _view(self, width: int, height: int, start: int, stop: int) -> BinaryMask | None:
        return _mask(width, height, tuple(self.runs[start:stop].tolist())) if width else None

    def row_runs(self, index: int) -> np.ndarray:
        """Row index's runs, a view of the column's runs."""
        return self.runs[self.offsets[index] : self.offsets[index + 1]]

    def masked(self) -> np.ndarray:
        """Whether each row has a mask."""
        return np.zeros(self.size, dtype=bool) if self.widths is None else self.widths != 0

    def areas(self) -> np.ndarray:
        """Each row's mask area, the int64 sum of its odd runs; 0 for a row
        without a mask."""
        areas = np.zeros(self.size, dtype=np.int64)
        rows = np.flatnonzero(self.masked())
        if len(rows):
            firsts = self.offsets[rows]
            # The runs at the column's odd positions are a row's odd runs
            # when the row starts at an even position, else its even runs.
            at_odd = self.runs.copy()
            at_odd[::2] = 0
            sums = np.add.reduceat(at_odd, firsts)
            del at_odd
            totals = np.add.reduceat(self.runs, firsts)
            areas[rows] = np.where(firsts % 2 == 0, sums, totals - sums)
        return areas

    def take(self, indices: np.ndarray) -> _Masks:
        """The masks of the rows at indices, in that order: this column for
        every row in order, else the runs copied _TAKE_ROWS rows at a time."""
        if self.widths is None:
            return _Masks(len(indices))
        if len(indices) == self.size and np.array_equal(indices, np.arange(self.size)):
            return self
        starts, stops = self.offsets[indices], self.offsets[indices + 1]
        runs = np.empty(int((stops - starts).sum()), dtype=np.int64)
        end = 0
        for first in range(0, len(indices), _TAKE_ROWS):
            rows = slice(first, first + _TAKE_ROWS)
            parts = list(map(self.runs.__getitem__, map(slice, starts[rows].tolist(), stops[rows].tolist())))
            chunk = np.concatenate(parts) if parts else runs[:0]
            runs[end : end + len(chunk)] = chunk
            end += len(chunk)
        return _Masks._of(self.widths[indices], self.heights[indices], stops - starts, runs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Masks):
            return NotImplemented
        if self.size != other.size or (self.widths is None) != (other.widths is None):
            return False
        return self.widths is None or all(map(np.array_equal, self._filled(), other._filled()))

    __hash__ = None

    def __repr__(self) -> str:
        return f"_Masks({list(self)!r})"


class _Annotations(_CodedTable):
    """The columns that predictions and ground truth share: image and
    category ids, boxes and masks (``_Masks``), and scores when the table
    has them."""

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
            _Masks.from_rows([row.mask for row in rows]),
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
            _Masks.concat([t.masks for t in tables]),
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
