"""Bit-exact file formats and their parsers/serializers.

All tabular formats are UTF-8, LF-terminated CSV with a fixed header row and
no quoting; identifiers therefore must not contain commas or newlines (the
record types enforce this).  Floats are rendered with the shortest decimal
representation that round-trips, so ``write(parse(f)) == f`` for any file this
module wrote and ``parse(write(records)) == records`` for any record list.

Every CSV parser reads a file's decoded text a chunk of lines at a time
(``_chunks``, the only code here that splits text into lines, and only the
lines a chunk yields), whether it converts a chunk's columns whole or walks
its rows one by one (``_csv_lines``), so no parse holds a list of every
line of a file.  The writers format and encode a chunk of rows at a time;
a predictions file is two parts, its header and its rows' buffer
(``_prediction_file``), which the CLI writes one after the other.

Formats
-------
predictions      ``image_id,category_id,score,x_min,y_min,x_max,y_max,mask_width,mask_height,mask_rle``
                 (the last three fields are empty for box-only predictions;
                 ``mask_rle`` is space-separated run lengths)
ground truth     ``image_id,category_id,x_min,y_min,x_max,y_max,mask_width,mask_height,mask_rle``
verification     ``image_id,category_id,verification`` with verification in {1, -1}
hierarchy        JSON list of ``{"child": ..., "parent": ...}`` objects
category stats   ``category_id,count``
RoI pool         ``image_id,x_min,y_min,x_max,y_max,objectness`` (objectness may be empty)
embeddings       ``category_id,v0,v1,...,v{d-1}``
category groups  ``group_index,category_id``
category list    ``category_id``
image list       ``image_id``
sampled indices  ``image_id,roi_index``
label matrix     ``roi_index,category_id,label`` with label in {-1, 0, 1}
logit matrix     ``roi_index,category_id,logit``
eval report      ``category_id,ap,gt_count,prediction_count,ignored_count``
trim report      ``kind,key,value``
"""

from __future__ import annotations

import json
from collections import defaultdict
from collections.abc import Iterable, Mapping, Sequence
from itertools import count, islice, repeat
from math import isfinite, isnan, nan

import numpy as np

from .errors import ParseError, ValidationError
from .geometry import BinaryMask, Box
from .records import (
    DEFAULT_POOL_LIMIT,
    CategoryStats,
    EmbeddingTable,
    GroundTruthInstance,
    Hierarchy,
    Prediction,
    Roi,
    RoiPool,
    VerificationTable,
    _check_id,
    _check_pool_limit,
    _Codes,
)
from .table import (
    GroundTruth,
    GroundTruthTable,
    PredictionTable,
    Predictions,
    _firsts,
    _RowLines,
    as_table,
)

__all__ = [
    "PREDICTIONS_HEADER",
    "GROUND_TRUTH_HEADER",
    "VERIFICATION_HEADER",
    "STATS_HEADER",
    "ROI_POOL_HEADER",
    "EMBEDDINGS_HEADER_PREFIX",
    "GROUPS_HEADER",
    "CATEGORY_LIST_HEADER",
    "IMAGE_LIST_HEADER",
    "SAMPLED_HEADER",
    "LABELS_HEADER",
    "LOGITS_HEADER",
    "EVAL_REPORT_HEADER",
    "TRIM_REPORT_HEADER",
    "parse_prediction_table",
    "parse_predictions",
    "write_predictions",
    "serialized_size",
    "empty_predictions_size",
    "parse_ground_truth",
    "write_ground_truth",
    "parse_verification",
    "write_verification",
    "parse_hierarchy",
    "write_hierarchy",
    "parse_category_stats",
    "write_category_stats",
    "parse_roi_pool",
    "write_roi_pool",
    "parse_embeddings",
    "write_embeddings",
    "parse_category_list",
    "write_category_list",
    "parse_image_list",
    "write_image_list",
    "parse_category_groups",
    "write_category_groups",
    "parse_sampled_indices",
    "write_sampled_indices",
    "parse_label_matrix",
    "write_label_matrix",
    "parse_logit_matrix",
    "write_logit_matrix",
    "write_eval_report",
    "write_trim_report",
]

PREDICTIONS_HEADER = (
    "image_id,category_id,score,x_min,y_min,x_max,y_max,mask_width,mask_height,mask_rle"
)
GROUND_TRUTH_HEADER = (
    "image_id,category_id,x_min,y_min,x_max,y_max,mask_width,mask_height,mask_rle"
)
VERIFICATION_HEADER = "image_id,category_id,verification"
STATS_HEADER = "category_id,count"
ROI_POOL_HEADER = "image_id,x_min,y_min,x_max,y_max,objectness"
EMBEDDINGS_HEADER_PREFIX = "category_id"
GROUPS_HEADER = "group_index,category_id"
CATEGORY_LIST_HEADER = "category_id"
IMAGE_LIST_HEADER = "image_id"
SAMPLED_HEADER = "image_id,roi_index"
LABELS_HEADER = "roi_index,category_id,label"
LOGITS_HEADER = "roi_index,category_id,logit"
EVAL_REPORT_HEADER = "category_id,ap,gt_count,prediction_count,ignored_count"
TRIM_REPORT_HEADER = "kind,key,value"

def _fmt_float(value: float) -> str:
    # repr() of a Python float is the shortest string that round-trips.
    return repr(float(value))


# Rows parsed or formatted per step: enough to spread numpy's per-call
# cost, few enough that one chunk's field tokens stay within about a
# megabyte.
_CHUNK_LINES = 1024
# A parsed chunk's characters, unless it is one longer line: this bounds a
# chunk of long (masked) lines.
_CHUNK_CHARS = 1 << 18


def _encoded(lines: Sequence[str]) -> bytes:
    """Lines as UTF-8, each with its LF."""
    return ("\n".join(lines) + "\n").encode("utf-8")


def _slices(n: int):
    """Yield the slices of n rows, _CHUNK_LINES rows each."""
    return (slice(start, start + _CHUNK_LINES) for start in range(0, n, _CHUNK_LINES))


def _file(header: str, chunks: Iterable[Sequence[str]]) -> bytes:
    """A file of the header and one LF-terminated line per row, from the
    rows' lines a chunk at a time: only one chunk's text is held."""
    return b"".join([_encoded([header]), *map(_encoded, chunks)])


def _table(header: str, rows: Iterable[str]) -> bytes:
    """A file of the header and one LF-terminated line per row, the rows
    taken _CHUNK_LINES at a time."""
    rows = iter(rows)
    return _file(header, iter(lambda: list(islice(rows, _CHUNK_LINES)), []))


def _decode(data: bytes | str) -> str:
    if isinstance(data, bytes):
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            column = exc.start - data.rfind(b"\n", 0, exc.start)
            raise ParseError(
                line,
                f"not valid UTF-8 at byte {column} of the line: "
                f"0x{data[exc.start]:02x}, {exc.reason}",
            ) from exc
    return data


def _text(data: bytes | str) -> str:
    """A file's text, once it is valid UTF-8 without carriage returns."""
    text = _decode(data)
    if "\r" in text:
        line = text.count("\n", 0, text.index("\r")) + 1
        raise ParseError(line, "carriage returns are not allowed; files are LF-terminated")
    return text


def _data_text(data: bytes | str, header: str) -> tuple[str, int]:
    """A file's text and the offset where its line 2 starts, once the file
    is valid UTF-8 without carriage returns and its header matches."""
    text = _text(data)
    if not text:
        raise ParseError(1, f"missing header; expected {header!r}")
    end = text.find("\n")
    first = text if end < 0 else text[:end]
    if first != header:
        raise ParseError(1, f"bad header {first!r}; expected {header!r}")
    return text, len(first) + 1


def _numbered(lines: list[str], first: int):
    """Yield (line_number, line) for lines numbered from first, none empty."""
    for number, line in enumerate(lines, first):
        if line == "":
            raise ParseError(number, "empty line")
        yield number, line


def _row_count(text: str, start: int) -> int:
    """The number of lines of text from offset start."""
    return text.count("\n", start) + (start < len(text) and text[-1] != "\n")


def _chunks(text: str, start: int):
    """Yield (number of its first line, its lines without their LFs) for
    each chunk of the lines of text from offset start, which begins line 2.
    A chunk has at most _CHUNK_LINES lines and, unless it is one longer
    line, fewer than _CHUNK_CHARS characters.  Only the lines a chunk
    yields are split: the window of _CHUNK_CHARS characters is held as one
    string, never as a line per row it holds."""
    number = 2
    while start < len(text):
        stop = text.rfind("\n", start, start + _CHUNK_CHARS)
        if stop < 0:
            stop = text.find("\n", start)
            if stop < 0:
                stop = len(text)
        lines = text[start:stop].split("\n", _CHUNK_LINES)
        if len(lines) > _CHUNK_LINES:
            # The window's unsplit rest starts the next chunk.
            stop -= len(lines.pop()) + 1
        yield number, lines
        number += len(lines)
        start = stop + 1


def _csv_lines(text: str, start: int):
    """Yield (line_number, line) for the lines of text from offset start,
    which begins line 2, a chunk (see _chunks) at a time; an empty line is
    a ParseError."""
    for first, lines in _chunks(text, start):
        yield from _numbered(lines, first)


def _split_chunk(lines: list[str], n_fields: int) -> list[str] | None:
    """Every field of a chunk, row-major, when each line has n_fields fields;
    None otherwise.  n_fields is at least 2, so an empty line fails."""
    n = len(lines)
    if list(map(str.count, lines, repeat(",", n))).count(n_fields - 1) != n:
        return None
    return ",".join(lines).split(",")


def _chunk_columns(text: str, start: int, n_fields: int, columns_of_chunk, fallback=None):
    """Yield the columns of each chunk (see _chunks) of a file's data lines,
    which start at offset start of its text, in file order.  A chunk whose
    lines all have n_fields fields is split into its fields, row-major, and
    columns_of_chunk(fields, number of rows) converts them whole.  It gives
    None, or raises ValueError, for a chunk that fails a check; then
    fallback(chunk, number of its first line) walks the chunk row by row
    and raises its first error.  A parser whose checks span chunks passes
    no fallback and is given None for the chunk, to walk the whole file."""
    for first, chunk in _chunks(text, start):
        fields = _split_chunk(chunk, n_fields)
        try:
            columns = None if fields is None else columns_of_chunk(fields, len(chunk))
        except ValueError:
            columns = None
        # Only the columns outlive the chunk's fields.
        del fields
        if columns is None and fallback is not None:
            fallback(chunk, first)
            raise AssertionError(f"line {first}: the rows pass the checks their columns fail")
        yield columns


def _split(line: str, line_number: int, n_fields: int) -> list[str]:
    parts = line.split(",")
    if len(parts) != n_fields:
        raise ParseError(line_number, f"expected {n_fields} fields, got {len(parts)}")
    return parts


def _parse_float(text: str, line_number: int, name: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ParseError(line_number, f"bad {name} {text!r}") from exc


def _parse_int(text: str, line_number: int, name: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ParseError(line_number, f"bad {name} {text!r}") from exc


def _parse_id(text: str, line_number: int, name: str) -> None:
    try:
        _check_id(name, text)
    except ValidationError as exc:
        raise ParseError(line_number, str(exc)) from exc


def _parse_box(fields: Sequence[str], line_number: int) -> Box:
    """The Box of four coordinate fields (x_min, y_min, x_max, y_max)."""
    x_min, y_min, x_max, y_max = fields
    try:
        return Box(float(x_min), float(y_min), float(x_max), float(y_max))
    except ValidationError as exc:
        raise ParseError(line_number, str(exc)) from exc
    except ValueError:
        # float() rejected a field: report the first such field by name.
        for text, name in zip(fields, ("x_min", "y_min", "x_max", "y_max")):
            _parse_float(text, line_number, name)
        raise


def _parse_mask_fields(
    parts: Sequence[str], line_number: int
) -> BinaryMask | None:
    width_s, height_s, rle_s = parts
    if width_s == "" and height_s == "" and rle_s == "":
        return None
    if width_s == "" or height_s == "":
        raise ParseError(line_number, "mask fields must be all empty or all present")
    width = _parse_int(width_s, line_number, "mask_width")
    height = _parse_int(height_s, line_number, "mask_height")
    if rle_s == "":
        raise ParseError(line_number, "mask_rle is empty but dimensions are present")
    tokens = rle_s.split(" ")
    try:
        runs = list(map(int, tokens))
    except ValueError:
        runs = [_parse_int(token, line_number, "mask run") for token in tokens]
    try:
        return BinaryMask(width, height, runs)
    except ValidationError as exc:
        raise ParseError(line_number, str(exc)) from exc


def _mask_fields(mask: BinaryMask | None) -> str:
    if mask is None:
        return ",,"
    return f"{mask.width},{mask.height},{' '.join(map(str, mask.runs))}"


# -- predictions and ground truth ----------------------------------------------

def _annotation_rows(lines: list[str], first: int, n_fields: int) -> None:
    """Raise the first error of a chunk of predictions lines (10 fields, with
    a score) or ground-truth lines (9, without) from line first, row by row
    and field by field."""
    record = Prediction if n_fields == 10 else GroundTruthInstance
    for number, line in _numbered(lines, first):
        parts = _split(line, number, n_fields)
        mask = _parse_mask_fields(parts[-3:], number)
        box = _parse_box(parts[-7:-3], number)
        scores = [_parse_float(parts[2], number, "score")] if n_fields == 10 else []
        try:
            record(parts[0], parts[1], *scores, box, mask)
        except ValidationError as exc:
            raise ParseError(number, str(exc)) from exc


def _box_columns(fields: list[str], n: int, n_fields: int, n_ids: int, n_after: int):
    """The id columns and numbers of a chunk's n rows of n_fields fields,
    given row-major, when they pass the record checks; None otherwise, and
    ValueError when a number does not parse.  The first n_ids fields are
    ids, none empty; the numbers, a [k, n] float64 array read through
    float() as the row parse reads them, are the fields from there to the
    box, which is followed by n_after fields: scores, each in [0, 1], then
    the box, ordered with each coordinate finite, as Box checks it."""
    ids = [fields[k::n_fields] for k in range(n_ids)]
    if any("" in column for column in ids):
        return None
    numbers = np.array(
        [
            np.fromiter(map(float, fields[k::n_fields]), np.float64, n)
            for k in range(n_ids, n_fields - n_after)
        ]
    )
    scores, (x_min, y_min, x_max, y_max) = numbers[:-4], numbers[-4:]
    if not (
        np.all((0.0 <= scores) & (scores <= 1.0))
        and np.all(x_min <= x_max)
        and np.all(y_min <= y_max)
        and np.isfinite(numbers[-4:]).all()
    ):
        return None
    return ids, numbers


def _mask_column(widths: list[str], heights: list[str], rles: list[str]) -> list:
    """Each row's mask, None where its three mask fields are empty;
    ValueError when a mask does not parse or fails BinaryMask's checks."""
    return [
        None if w == h == rle == "" else BinaryMask(int(w), int(h), [*map(int, rle.split(" "))])
        for w, h, rle in zip(widths, heights, rles)
    ]


def _parse_coded(data: bytes | str, header: str, n_fields: int):
    """The columns of a predictions (n_fields 10) or ground-truth (9) file:
    sorted image ids and each row's code, the same for category ids, the
    scores as a [k, N] float64 array (one row, or none), the boxes as
    [N, 4] and the masks, each array filled a chunk at a time.  A chunk is
    parsed column by column; one that fails a check goes to
    _annotation_rows, row by row, so the first bad row reports its own
    line.  Each id column is interned once for the whole file."""

    def columns(fields: list[str], n: int):
        columns = _box_columns(fields, n, n_fields, 2, 3)
        if columns is None:
            return None
        mask_fields = [fields[k::n_fields] for k in range(n_fields - 3, n_fields)]
        if all(column.count("") == n for column in mask_fields):
            return (*columns, [None] * n)
        return (*columns, _mask_column(*mask_fields))

    text, start = _data_text(data, header)
    n = _row_count(text, start)
    images, categories = _Codes(), _Codes()
    scores, boxes, masks = np.empty((n_fields - 9, n)), np.empty((n, 4)), []
    for ids, numbers, chunk_masks in _chunk_columns(
        text,
        start,
        n_fields,
        columns,
        lambda chunk, first: _annotation_rows(chunk, first, n_fields),
    ):
        images.add(ids[0])
        categories.add(ids[1])
        rows = slice(len(masks), len(masks) + len(chunk_masks))
        scores[:, rows] = numbers[:-4]
        boxes[rows] = numbers[-4:].T
        masks += chunk_masks
    return *images.finish(), *categories.finish(), scores, boxes, masks


def parse_prediction_table(data: bytes | str) -> PredictionTable:
    """Parse a predictions file into a table; see _parse_coded."""
    images, image_codes, categories, category_codes, scores, boxes, masks = _parse_coded(
        data, PREDICTIONS_HEADER, 10
    )
    (scores,) = scores
    return PredictionTable(images, categories, image_codes, category_codes, scores, boxes, masks)


def parse_predictions(data: bytes | str) -> list[Prediction]:
    """Parse a predictions file into rows; see parse_prediction_table."""
    return parse_prediction_table(data).rows()


def _row_lines(table: PredictionTable | GroundTruthTable, rows: slice) -> list[str]:
    """The CSV lines of a slice of a table's rows, without their LFs: ids,
    the score when the table has scores, box and mask fields.  Floats are
    written with repr(), the shortest string that round-trips."""
    scores = [map(repr, table.scores[rows].tolist())] if isinstance(table, PredictionTable) else []
    coordinates = map(repr, table.boxes[rows].ravel().tolist())
    return list(
        map(
            ",".join,
            zip(
                map(table.image_ids.__getitem__, table.image_codes[rows].tolist()),
                map(table.category_ids.__getitem__, table.category_codes[rows].tolist()),
                *scores,
                map(",".join, zip(*[coordinates] * 4)),
                map(_mask_fields, table.masks[rows]),
            ),
        )
    )


def _prediction_lines(table: PredictionTable) -> _RowLines:
    """Each row's line in the written file: ``table.lines`` when set, else
    formatted and encoded here _CHUNK_LINES rows at a time, and not kept,
    since the table may be shared."""
    if table.lines is not None:
        return table.lines
    chunks, sizes = [], [np.zeros(0, np.int64)]
    for rows in _slices(len(table)):
        lines = _row_lines(table, rows)
        chunks.append(_encoded(lines))
        encoded = lines if chunks[-1].isascii() else map(str.encode, lines)
        sizes.append(np.fromiter(map(len, encoded), np.int64, len(lines)) + 1)
    return _RowLines(b"".join(chunks), np.cumsum(np.concatenate(sizes)))


def _prediction_file(table: PredictionTable) -> tuple[bytes, bytes | bytearray]:
    """A predictions file's two parts: the header line, then the rows'
    lines as they are held or formatted."""
    return _encoded([PREDICTIONS_HEADER]), _prediction_lines(table).data


def write_predictions(predictions: Predictions) -> bytes:
    """The file of _prediction_file's parts, joined."""
    return b"".join(_prediction_file(as_table(predictions)))


def empty_predictions_size() -> int:
    """Byte length of a predictions file with no rows."""
    return len(PREDICTIONS_HEADER.encode("utf-8")) + 1


def serialized_size(predictions: Predictions) -> int:
    """Exact byte length write_predictions() would produce."""
    return empty_predictions_size() + len(_prediction_lines(as_table(predictions)).data)


def parse_ground_truth(data: bytes | str) -> GroundTruthTable:
    """Parse a ground-truth file into a table; see _parse_coded."""
    images, image_codes, categories, category_codes, _, boxes, masks = _parse_coded(
        data, GROUND_TRUTH_HEADER, 9
    )
    return GroundTruthTable(images, categories, image_codes, category_codes, boxes, masks)


def write_ground_truth(gts: GroundTruth) -> bytes:
    table = as_table(gts, GroundTruthTable)
    return _file(GROUND_TRUTH_HEADER, (_row_lines(table, rows) for rows in _slices(len(table))))


# -- verification --------------------------------------------------------------

_SIGNS = {"1": 1, "-1": -1}
_SIGN_TEXT = {1: "1", -1: "-1"}


def _verification_rows(rows) -> None:
    """Raise the first error of a file's numbered data lines (see
    _csv_lines), row by row: the source of every verification ParseError."""
    entries: dict[tuple[str, str], int] = {}
    for number, line in rows:
        parts = _split(line, number, 3)
        _parse_id(parts[0], number, "image_id")
        _parse_id(parts[1], number, "category_id")
        if parts[2] not in ("1", "-1"):
            raise ParseError(number, f"verification must be 1 or -1, got {parts[2]!r}")
        key = (parts[0], parts[1])
        sign = int(parts[2])
        if key in entries and entries[key] != sign:
            raise ParseError(
                number,
                f"conflicting verification for image {key[0]!r}, category {key[1]!r}",
            )
        entries[key] = sign


def _verification_columns(fields: list[str], n: int):
    """A chunk's image ids, category ids and signs; None when a row fails a
    field check.  Split ids hold no comma or newline, so non-empty ones are
    valid."""
    image_ids, category_ids = fields[0::3], fields[1::3]
    signs = np.fromiter(map(_SIGNS.get, fields[2::3], repeat(0, n)), np.int8, n)
    if "" in image_ids or "" in category_ids or not signs.all():
        return None
    return image_ids, category_ids, signs


def parse_verification(data: bytes | str) -> VerificationTable:
    """Parse a verification file into coded pairs, each distinct pair once;
    a repeat of a pair with the same sign is accepted.  The file is parsed
    column by column; when a chunk fails the field checks, or a pair repeats
    with the other sign, it is walked row by row, so the first bad row
    reports its own line."""
    text, start = _data_text(data, VERIFICATION_HEADER)
    images, categories = _Codes(), _Codes()
    signs = []
    for columns in _chunk_columns(text, start, 3, _verification_columns):
        if columns is None:
            break
        images.add(columns[0])
        categories.add(columns[1])
        signs.append(columns[2])
    else:
        image_vocabulary, image_codes = images.finish()
        category_vocabulary, category_codes = categories.finish()
        signs = np.concatenate(signs) if signs else np.zeros(0, dtype=np.int8)
        keys = image_codes.astype(np.int64) * len(category_vocabulary) + category_codes
        kept = _firsts(keys)
        # A pair with both signs has more distinct (pair, sign) keys than pairs.
        if len(_firsts(keys * 2 + (signs > 0))) == len(kept):
            return VerificationTable.from_columns(
                image_vocabulary,
                category_vocabulary,
                image_codes[kept],
                category_codes[kept],
                signs[kept],
            )
    _verification_rows(_csv_lines(text, start))
    raise AssertionError("the rows pass the checks their columns fail")


def write_verification(verification: VerificationTable) -> bytes:
    """One line per pair, in (image_id, category_id) order."""
    order = np.lexsort((verification.category_codes, verification.image_codes))

    def lines(rows: slice) -> list[str]:
        picked = order[rows]
        images = verification.image_codes[picked].tolist()
        categories = verification.category_codes[picked].tolist()
        return list(
            map(
                ",".join,
                zip(
                    map(verification.image_ids.__getitem__, images),
                    map(verification.category_ids.__getitem__, categories),
                    map(_SIGN_TEXT.__getitem__, verification.signs[picked].tolist()),
                ),
            )
        )

    return _file(VERIFICATION_HEADER, map(lines, _slices(len(order))))


# -- hierarchy -----------------------------------------------------------------


def parse_hierarchy(
    data: bytes | str, categories: Sequence[str] | None = None
) -> Hierarchy:
    text = _decode(data)
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, f"invalid JSON: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(1, "invalid JSON: nested too deeply") from exc
    if not isinstance(raw, list):
        raise ParseError(1, "hierarchy must be a JSON list of {child, parent} objects")
    edges = []
    for index, item in enumerate(raw):
        if (
            not isinstance(item, dict)
            or set(item) != {"child", "parent"}
            or not isinstance(item.get("child"), str)
            or not isinstance(item.get("parent"), str)
        ):
            raise ParseError(
                1, f"hierarchy entry {index} must be an object with child and parent strings"
            )
        edges.append((item["child"], item["parent"]))
    return Hierarchy(edges, categories=categories)


def write_hierarchy(hierarchy: Hierarchy) -> bytes:
    payload = [{"child": child, "parent": parent} for child, parent in hierarchy.edges]
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


# -- category stats ------------------------------------------------------------


def parse_category_stats(data: bytes | str) -> CategoryStats:
    counts: dict[str, int] = {}
    for number, line in _csv_lines(*_data_text(data, STATS_HEADER)):
        parts = _split(line, number, 2)
        _parse_id(parts[0], number, "category_id")
        if parts[0] in counts:
            raise ParseError(number, f"duplicate category {parts[0]!r}")
        count = _parse_int(parts[1], number, "count")
        if count < 0:
            raise ParseError(number, f"count must be non-negative, got {count}")
        counts[parts[0]] = count
    return CategoryStats(counts)


def write_category_stats(stats: CategoryStats) -> bytes:
    return _table(
        STATS_HEADER, (f"{category},{count}" for category, count in sorted(stats.items()))
    )


# -- RoI pool ------------------------------------------------------------------


def _roi_pool_rows(rows, max_per_image: int) -> None:
    """Raise the first error of a file's numbered data lines (see
    _csv_lines), row by row: the source of every RoI pool ParseError."""
    counts: dict[str, int] = {}
    for number, line in rows:
        parts = _split(line, number, 6)
        _parse_id(parts[0], number, "image_id")
        objectness = _parse_float(parts[5], number, "objectness") if parts[5] else None
        box = _parse_box(parts[1:5], number)
        try:
            Roi(box, objectness)
        except ValidationError as exc:
            raise ParseError(number, str(exc)) from exc
        held = counts.get(parts[0], 0)
        if held >= max_per_image:
            raise ParseError(
                number,
                f"image {parts[0]!r} exceeds the pool limit of {max_per_image} RoIs",
            )
        counts[parts[0]] = held + 1


def _roi_pool_columns(fields: list[str], n: int):
    """A chunk's image ids and [5, n] numbers (the box, then objectness, NaN
    for none) when every row passes the record checks; None otherwise, and
    ValueError when a number does not parse.  A given objectness must be
    finite."""
    columns = _box_columns(fields, n, 6, 1, 1)
    if columns is None:
        return None
    (image_ids,), boxes = columns
    texts = fields[5::6]
    objectness = np.fromiter((float(text) if text else nan for text in texts), np.float64, n)
    if not np.all(np.isfinite(objectness) | ~np.fromiter(map(bool, texts), bool, n)):
        return None
    return image_ids, np.vstack((boxes, objectness))


def parse_roi_pool(
    data: bytes | str, max_per_image: int = DEFAULT_POOL_LIMIT
) -> RoiPool:
    """Parse a RoI pool file into columns, once the limit is checked.  The
    file is parsed column by column, a chunk of rows at a time; when a chunk
    fails the record checks, or one count of each image's rows finds one
    over the limit, it is walked row by row, so the first bad row, or the
    row that takes its image over the limit, reports its own line."""
    _check_pool_limit(max_per_image)
    text, start = _data_text(data, ROI_POOL_HEADER)
    n = _row_count(text, start)
    images, boxes, objectness = _Codes(), np.empty((n, 4)), np.empty(n)
    end = 0
    for columns in _chunk_columns(text, start, 6, _roi_pool_columns):
        if columns is None:
            break
        image_ids, numbers = columns
        images.add(image_ids)
        boxes[end : end + len(image_ids)] = numbers[:4].T
        objectness[end : end + len(image_ids)] = numbers[4]
        end += len(image_ids)
    else:
        image_ids, image_codes = images.finish()
        if np.bincount(image_codes).max(initial=0) <= max_per_image:
            return RoiPool.from_columns(image_ids, image_codes, boxes, objectness, max_per_image)
    _roi_pool_rows(_csv_lines(text, start), max_per_image)
    raise AssertionError("the rows pass the checks their columns fail")


def write_roi_pool(pool: RoiPool) -> bytes:
    """One line per RoI, image by image in id order, each image's RoIs in
    row order."""
    order = np.argsort(pool.image_codes, kind="stable")

    def lines(rows: slice) -> list[str]:
        picked = order[rows]
        coordinates = map(repr, pool.boxes[picked].ravel().tolist())
        objectness = pool.objectness[picked].tolist()
        return list(
            map(
                ",".join,
                zip(
                    map(pool.image_ids.__getitem__, pool.image_codes[picked].tolist()),
                    map(",".join, zip(*[coordinates] * 4)),
                    ["" if isnan(value) else repr(value) for value in objectness],
                ),
            )
        )

    return _file(ROI_POOL_HEADER, map(lines, _slices(len(order))))


# -- embeddings ----------------------------------------------------------------


def parse_embeddings(data: bytes | str) -> EmbeddingTable:
    text = _text(data)
    if not text:
        raise ParseError(1, "missing embeddings header")
    end = text.find("\n")
    first = text if end < 0 else text[:end]
    header = first.split(",")
    dimension = len(header) - 1
    if dimension < 1 or header != [EMBEDDINGS_HEADER_PREFIX, *(f"v{i}" for i in range(dimension))]:
        raise ParseError(1, f"bad embeddings header {first!r}")
    vectors: dict[str, list[float]] = {}
    for number, line in _csv_lines(text, len(first) + 1):
        parts = line.split(",")
        if len(parts) != dimension + 1:
            raise ParseError(
                number,
                f"embedding dimension mismatch: expected {dimension} values, "
                f"got {len(parts) - 1}",
            )
        _parse_id(parts[0], number, "category_id")
        if parts[0] in vectors:
            raise ParseError(number, f"duplicate category {parts[0]!r}")
        vector = [_parse_float(tok, number, "embedding value") for tok in parts[1:]]
        if not all(map(isfinite, vector)):
            raise ParseError(number, f"embedding for {parts[0]!r} has non-finite entries")
        vectors[parts[0]] = vector
    try:
        return EmbeddingTable(vectors)
    except ValidationError as exc:
        raise ParseError(1, str(exc)) from exc


def write_embeddings(table: EmbeddingTable) -> bytes:
    header = ",".join(
        [EMBEDDINGS_HEADER_PREFIX] + [f"v{i}" for i in range(table.dimension)]
    )
    return _table(
        header,
        (",".join([category, *map(_fmt_float, table[category])]) for category in sorted(table)),
    )


# -- category lists and groups ---------------------------------------------------


def _parse_id_list(data: bytes | str, header: str, noun: str) -> list[str]:
    ids: list[str] = []
    seen: set[str] = set()
    for number, line in _csv_lines(*_data_text(data, header)):
        (value,) = _split(line, number, 1)
        if value in seen:
            raise ParseError(number, f"duplicate {noun} {value!r}")
        if value == "":
            raise ParseError(number, f"empty {noun} id")
        seen.add(value)
        ids.append(value)
    return ids


def parse_image_list(data: bytes | str) -> list[str]:
    return _parse_id_list(data, IMAGE_LIST_HEADER, "image")


def write_image_list(images: Sequence[str]) -> bytes:
    return _table(IMAGE_LIST_HEADER, images)


def parse_category_list(data: bytes | str) -> list[str]:
    return _parse_id_list(data, CATEGORY_LIST_HEADER, "category")


def write_category_list(categories: Sequence[str]) -> bytes:
    return _table(CATEGORY_LIST_HEADER, categories)


def parse_category_groups(data: bytes | str):
    """Parse a group file into a list of CategoryGroup records.

    Group indices must start at 0 and be contiguous and non-decreasing.
    """
    from .experts import CategoryGroup

    groups: list[list[str]] = []
    for number, line in _csv_lines(*_data_text(data, GROUPS_HEADER)):
        parts = _split(line, number, 2)
        index = _parse_int(parts[0], number, "group_index")
        if index == len(groups):
            groups.append([])
        elif index != len(groups) - 1:
            raise ParseError(
                number,
                f"group indices must be contiguous and non-decreasing, got {index}",
            )
        _parse_id(parts[1], number, "category_id")
        if parts[1] in groups[index]:
            raise ParseError(number, f"duplicate category {parts[1]!r} in group {index}")
        groups[index].append(parts[1])
    out = []
    for members in groups:
        try:
            out.append(CategoryGroup(tuple(members), provenance="file"))
        except ValidationError as exc:
            raise ParseError(1, str(exc)) from exc
    return out


def write_category_groups(groups) -> bytes:
    return _table(
        GROUPS_HEADER,
        (
            f"{index},{category_id}"
            for index, group in enumerate(groups)
            for category_id in group.categories
        ),
    )


# -- sampled RoI indices ---------------------------------------------------------


def parse_sampled_indices(data: bytes | str) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    for number, line in _csv_lines(*_data_text(data, SAMPLED_HEADER)):
        parts = _split(line, number, 2)
        _parse_id(parts[0], number, "image_id")
        index = _parse_int(parts[1], number, "roi_index")
        if index < 0:
            raise ParseError(number, f"roi_index must be non-negative, got {index}")
        out.setdefault(parts[0], []).append(index)
    return out


def write_sampled_indices(samples: Mapping[str, Sequence[int]]) -> bytes:
    return _table(
        SAMPLED_HEADER,
        (f"{image_id},{index}" for image_id in sorted(samples) for index in samples[image_id]),
    )


# -- label and logit matrices ----------------------------------------------------

# The text of each label, indexed by the label: -1 reads the last entry.
_LABEL_TEXT = ("0", "1", "-1")
_LABELS = frozenset((-1, 0, 1))


def _parse_label(text: str, number: int, name: str) -> int:
    value = _parse_int(text, number, name)
    if value not in _LABELS:
        raise ParseError(number, f"label must be -1, 0 or 1, got {value}")
    return value


def _label_column(texts: list[str]) -> np.ndarray:
    """A chunk's labels; ValueError unless each reads -1, 0 or 1."""
    labels = list(map(int, texts))
    if not _LABELS.issuperset(labels):
        raise ValueError("label out of range")
    return np.array(labels, dtype=np.int8)


def _logit_column(texts: list[str]) -> np.ndarray:
    return np.fromiter(map(float, texts), np.float64, len(texts))


def _matrix_columns(fields: list[str], n: int, value_column):
    """A chunk's RoI indices (int64, or object when one is beyond int64),
    category ids and values, each column converted whole; ValueError when
    some row has a field error."""
    rois = fields[0::3]
    # A RoI's index repeats on each of its cells: convert each text once.
    index = {text: int(text) for text in set(rois)}
    try:
        indices = np.fromiter(map(index.__getitem__, rois), np.int64, n)
    except OverflowError:
        indices = np.array(list(map(index.__getitem__, rois)), dtype=object)
    return indices, fields[1::3], value_column(fields[2::3])


def _matrix_field_error(lines: list[str], first: int, parse_value, value_name: str) -> None:
    """Raise the first field error of a chunk that _matrix_columns rejected,
    row by row: empty line, field count, roi_index, then the value."""
    for number, line in _numbered(lines, first):
        parts = _split(line, number, 3)
        _parse_int(parts[0], number, "roi_index")
        parse_value(parts[2], number, value_name)


def _layout_check(rois: np.ndarray, names: list[str], first: int, width, codes):
    """Check a chunk's cells, from cell first, against the layout rule (see
    _parse_matrix), coding RoI 0's categories in codes: the width w, once
    known (0 when RoI 0 has no cells), and the error of the first cell that
    breaks the rule, or None.  The RoI column is compared in numpy; after
    RoI 0 the category column is compared as one list with the categories
    of codes k % w, since coding every cell through the dict took longer
    than the rest of the check."""
    k = np.arange(first, first + len(names))
    if width is None:
        others = np.flatnonzero(rois != 0)
        end = int(others[0]) if others.size else len(names)
        chunk_codes = np.fromiter(map(codes.__getitem__, names[:end]), np.int64, end)
        repeats = np.flatnonzero(chunk_codes != k[:end])
        if repeats.size:
            i = int(repeats[0])
            return None, ParseError(first + i + 2, f"duplicate category {names[i]!r} for roi 0")
        if end == len(names):
            return None, None
        width = first + end
        if not width:
            return 0, ParseError(2, "first roi_index must be 0")
    start = first % width
    due = (list(codes) * (len(names) // width + 2))[start : start + len(names)]
    bad_rois = rois != k // width
    if names == due and not bad_rois.any():
        return width, None
    i = next(i for i, name in enumerate(names) if bad_rois[i] or name != due[i])
    if bad_rois[i]:
        reason = f"expected roi_index {k[i] // width}, got {rois[i]}"
    else:
        reason = f"expected category {due[i]!r}, got {names[i]!r}"
    return width, ParseError(first + i + 2, reason)


def _parse_matrix(
    data: bytes | str, header: str, value_column, parse_value, value_name: str, dtype
):
    """The (RoI x category) values of a matrix file, of dtype, and its
    categories.  Each chunk's columns are converted whole into the values;
    a chunk that fails is parsed row by row, that chunk alone, for its
    field error.

    The layout is one rule.  Code the categories in order of first sight,
    and let w be the number of cells in RoI 0: cell k, on line k + 2, has
    RoI k // w and code k % w, and while w is still unknown, RoI 0's cell k
    has code k.  Each chunk is checked whole (_layout_check) until a cell
    breaks the rule; the error waits until every chunk has parsed, so a
    field error anywhere wins.  It names, in this order, a category
    repeated in RoI 0, a first cell not in RoI 0, the last line of a matrix
    that ends mid-row, or the first cell out of place, its RoI index
    checked before its category."""
    text, start = _data_text(data, header)
    values = np.empty(_row_count(text, start), dtype)
    codes: defaultdict[str, int] = defaultdict(count().__next__)
    width = layout_error = None
    cells = 0
    for rois, names, chunk_values in _chunk_columns(
        text,
        start,
        3,
        lambda fields, n: _matrix_columns(fields, n, value_column),
        lambda chunk, first: _matrix_field_error(chunk, first, parse_value, value_name),
    ):
        values[cells : cells + len(names)] = chunk_values
        if layout_error is None:
            width, layout_error = _layout_check(rois, names, cells, width, codes)
        cells += len(names)
    if not cells:
        raise ParseError(1, f"{value_name} matrix has no rows")
    if width and cells % width:
        raise ParseError(cells + 1, "matrix ends mid-row")
    if layout_error is not None:
        raise layout_error
    return values.reshape(-1, len(codes)), tuple(codes)


def parse_label_matrix(data: bytes | str):
    """Parse a label CSV into a LabelMatrix."""
    from .federated import LabelMatrix

    values, categories = _parse_matrix(
        data, LABELS_HEADER, _label_column, _parse_label, "label", np.int8
    )
    ones = values == 1
    doubled = np.flatnonzero(ones.sum(axis=1) > 1)
    if doubled.size:
        # Name the line of the first such row's second +1.
        row = int(doubled[0])
        column = int(np.flatnonzero(ones[row])[1])
        raise ParseError(
            2 + row * len(categories) + column, "label matrix rows may contain at most one +1"
        )
    return LabelMatrix(values, categories)


def _matrix_file(header: str, values: np.ndarray, cells_of) -> bytes:
    """A long-format matrix file, one line per cell, RoI-major, from a
    (RoI x category) array: cells_of(some RoIs' rows of values) gives each
    of those RoIs' cells as ",category_id,value" texts.  One join per RoI;
    about _CHUNK_LINES cells are formatted and encoded at a time."""
    n_rois, n_categories = values.shape
    step = max(1, _CHUNK_LINES // max(1, n_categories))

    def chunks():
        for start in range(0, n_rois if n_categories else 0, step):
            cells = cells_of(values[start : start + step])
            yield [f"{roi}" + f"\n{roi}".join(row) for roi, row in enumerate(cells, start)]

    return _file(header, chunks())


def write_label_matrix(matrix) -> bytes:
    """Each cell's text is looked up, not formatted: every category's three
    cells are formatted once."""
    texts = np.array(
        [[f",{category_id},{text}" for category_id in matrix.categories] for text in _LABEL_TEXT],
        dtype=object,
    ).reshape(len(_LABEL_TEXT), -1)
    columns = np.arange(texts.shape[1])
    return _matrix_file(LABELS_HEADER, matrix.values, lambda rows: texts[rows, columns].tolist())


def parse_logit_matrix(data: bytes | str) -> tuple[np.ndarray, tuple[str, ...]]:
    """Parse a logit CSV into a float64 (RoI x category) array and its
    categories."""
    return _parse_matrix(data, LOGITS_HEADER, _logit_column, _parse_float, "logit", np.float64)


def write_logit_matrix(logits: np.ndarray, categories: Sequence[str]) -> bytes:
    arr = np.asarray(logits, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != len(categories):
        raise ValidationError("logit matrix shape does not match the category list")
    # repr() of a Python float is the shortest string that round-trips.
    return _matrix_file(
        LOGITS_HEADER,
        arr,
        lambda rows: [[f",{c},{v!r}" for c, v in zip(categories, row)] for row in rows.tolist()],
    )


# -- reports ---------------------------------------------------------------------


def write_eval_report(report) -> bytes:
    return _table(
        EVAL_REPORT_HEADER,
        (
            f"{row.category_id},{'' if row.ap is None else _fmt_float(row.ap)},"
            f"{row.gt_count},{row.prediction_count},{row.ignored_count}"
            for row in report.results
        ),
    )


def write_trim_report(report) -> bytes:
    return _table(
        TRIM_REPORT_HEADER,
        [
            f"summary,final_bytes,{report.final_bytes}",
            f"summary,budget,{report.budget}",
            *(f"category,{c},{report.removed[c]}" for c in sorted(report.removed)),
        ],
    )
