"""Bit-exact file formats and their parsers/serializers.

All tabular formats are UTF-8, LF-terminated CSV with a fixed header row and
no quoting; identifiers therefore must not contain commas or newlines (the
record types enforce this).  Floats are rendered with the shortest decimal
representation that round-trips, so ``write(parse(f)) == f`` for any file this
module wrote and ``parse(write(records)) == records`` for any record list.

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
from collections.abc import Iterable, Mapping, Sequence
from itertools import chain, cycle, groupby, repeat
from math import isfinite
from operator import itemgetter

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
)
from .table import PredictionTable, Predictions, as_table

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


def _table(header: str, rows: Iterable[str]) -> bytes:
    """A file of the header and one LF-terminated line per row."""
    return ("\n".join([header, *rows]) + "\n").encode("utf-8")


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


def _data_lines(data: bytes | str, header: str) -> list[str]:
    """The lines after the header, the first being line 2, once the file is
    valid UTF-8 without carriage returns and its header matches."""
    text = _decode(data)
    if "\r" in text:
        raise ParseError(1, "carriage returns are not allowed; files are LF-terminated")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError(1, f"missing header; expected {header!r}")
    if lines[0] != header:
        raise ParseError(1, f"bad header {lines[0]!r}; expected {header!r}")
    del lines[0]
    return lines


def _numbered(lines: list[str], first: int):
    """Yield (line_number, line) for lines numbered from first, none empty."""
    for number, line in enumerate(lines, first):
        if line == "":
            raise ParseError(number, "empty line")
        yield number, line


def _csv_lines(data: bytes | str, header: str):
    """Yield (line_number, line) for data rows after validating the header."""
    return _numbered(_data_lines(data, header), 2)


# Rows parsed per vectorized step: enough to spread numpy's per-call cost,
# few enough that one chunk's field tokens stay within a few megabytes.
_CHUNK_LINES = 4096


def _chunks(lines: list[str]):
    """Yield (number of its first line, lines) for each _CHUNK_LINES-line
    chunk of a file's data lines."""
    for start in range(0, len(lines), _CHUNK_LINES):
        yield start + 2, lines[start : start + _CHUNK_LINES]


def _split_chunk(lines: list[str], n_fields: int) -> list[str] | None:
    """Every field of a chunk, row-major, when each line has n_fields fields;
    None otherwise.  n_fields is at least 2, so an empty line fails."""
    n = len(lines)
    if list(map(str.count, lines, repeat(",", n))).count(n_fields - 1) != n:
        return None
    return ",".join(lines).split(",")


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


# The record constructors store coordinates and scores as floats, so repr()
# gives the shortest string that round-trips without _fmt_float's float().
def _box_fields(box: Box) -> str:
    return f"{box.x_min!r},{box.y_min!r},{box.x_max!r},{box.y_max!r}"


def _mask_fields(mask: BinaryMask | None) -> str:
    if mask is None:
        return ",,"
    return f"{mask.width},{mask.height},{' '.join(map(str, mask.runs))}"


def _check_mask_dimensions(
    mask: BinaryMask | None,
    image_id: str,
    image_sizes: Mapping[str, tuple[int, int]] | None,
    line_number: int,
) -> None:
    if mask is None or image_sizes is None:
        return
    if image_id not in image_sizes:
        raise ParseError(line_number, f"no recorded dimensions for image {image_id!r}")
    expected = tuple(image_sizes[image_id])
    if (mask.width, mask.height) != expected:
        raise ParseError(
            line_number,
            f"mask is {mask.width}x{mask.height} but image {image_id!r} "
            f"is {expected[0]}x{expected[1]}",
        )


# -- predictions --------------------------------------------------------------

def _parse_prediction_line(
    number: int, line: str, image_sizes: Mapping[str, tuple[int, int]] | None
) -> Prediction:
    """One row, field by field: the source of every row's ParseError."""
    if line == "":
        raise ParseError(number, "empty line")
    parts = _split(line, number, 10)
    mask = _parse_mask_fields(parts[7:10], number)
    _check_mask_dimensions(mask, parts[0], image_sizes, number)
    box = _parse_box(parts[3:7], number)
    score = _parse_float(parts[2], number, "score")
    try:
        return Prediction(parts[0], parts[1], score, box, mask)
    except ValidationError as exc:
        raise ParseError(number, str(exc)) from exc


def _parse_box_only_chunk(lines: list[str]) -> PredictionTable | None:
    """The table of a chunk of box-only rows that all pass the record
    checks; None for any other chunk.  Numbers go through float(), as in
    the row-by-row parse."""
    n = len(lines)
    # Ten fields, the mask's three empty.
    if sum(map(str.endswith, lines, repeat(",,,", n))) != n:
        return None
    tokens = _split_chunk(lines, 10)
    if tokens is None:
        return None
    images, categories = tokens[0::10], tokens[1::10]
    if "" in images or "" in categories:
        return None
    try:
        numbers = np.array([list(map(float, tokens[k::10])) for k in range(2, 7)])
    except ValueError:
        return None
    score, x_min, y_min, x_max, y_max = numbers
    # Box's and Prediction's accept tests, column by column; a sum that
    # overflows fails here and the row-by-row parse judges the row.
    with np.errstate(over="ignore", invalid="ignore"):
        if not (
            np.all((0.0 <= score) & (score <= 1.0))
            and np.all(x_min <= x_max)
            and np.all(y_min <= y_max)
            and np.all(np.isfinite(x_min + y_min + x_max + y_max))
        ):
            return None
    return PredictionTable.from_columns(images, categories, score, numbers[1:].T, [None] * n)


def parse_prediction_table(
    data: bytes | str,
    image_sizes: Mapping[str, tuple[int, int]] | None = None,
) -> PredictionTable:
    """Parse a predictions file into a table; mask dimensions are
    cross-checked against image_sizes when a table is supplied.

    Rows are parsed a chunk at a time.  A chunk of valid box-only rows is
    parsed column by column; any other chunk (one with masks, or one that
    fails a check) is parsed row by row, so the first bad row reports its
    own line."""
    tables = []
    for first, chunk in _chunks(_data_lines(data, PREDICTIONS_HEADER)):
        table = _parse_box_only_chunk(chunk)
        if table is None:
            table = PredictionTable.from_rows(
                [
                    _parse_prediction_line(number, line, image_sizes)
                    for number, line in enumerate(chunk, first)
                ]
            )
        tables.append(table)
    return PredictionTable.concat(tables or [PredictionTable.from_rows([])])


def parse_predictions(
    data: bytes | str,
    image_sizes: Mapping[str, tuple[int, int]] | None = None,
) -> list[Prediction]:
    """Parse a predictions file into rows; see parse_prediction_table."""
    return parse_prediction_table(data, image_sizes).rows()


def _prediction_lines(table: PredictionTable) -> list[str]:
    """Each row's CSV line, without its LF.  Formatted once per table and
    kept in ``table.lines``; floats are written with repr(), the shortest
    string that round-trips."""
    if table.lines is None:
        coordinates = map(repr, table.boxes.ravel().tolist())
        table.lines = list(
            map(
                ",".join,
                zip(
                    map(table.image_ids.__getitem__, table.image_codes.tolist()),
                    map(table.category_ids.__getitem__, table.category_codes.tolist()),
                    map(repr, table.scores.tolist()),
                    map(",".join, zip(*[coordinates] * 4)),
                    map(_mask_fields, table.masks),
                ),
            )
        )
    return table.lines


def _prediction_row_sizes(table: PredictionTable) -> np.ndarray:
    """Byte length each row contributes to the serialized file."""
    lines = _prediction_lines(table)
    return np.fromiter(map(len, map(str.encode, lines)), np.int64, len(lines)) + 1


def write_predictions(predictions: Predictions) -> bytes:
    return _table(PREDICTIONS_HEADER, _prediction_lines(as_table(predictions)))


def empty_predictions_size() -> int:
    """Byte length of a predictions file with no rows."""
    return len(PREDICTIONS_HEADER.encode("utf-8")) + 1


def serialized_size(predictions: Predictions) -> int:
    """Exact byte length write_predictions() would produce."""
    return empty_predictions_size() + int(_prediction_row_sizes(as_table(predictions)).sum())


# -- ground truth --------------------------------------------------------------


def _ground_truth_rows(
    lines: list[str], first: int, image_sizes: Mapping[str, tuple[int, int]] | None
) -> list[GroundTruthInstance]:
    """Row by row, field by field: the source of every row's ParseError."""
    out: list[GroundTruthInstance] = []
    for number, line in _numbered(lines, first):
        parts = _split(line, number, 9)
        mask = _parse_mask_fields(parts[6:9], number)
        _check_mask_dimensions(mask, parts[0], image_sizes, number)
        box = _parse_box(parts[2:6], number)
        try:
            out.append(GroundTruthInstance(parts[0], parts[1], box, mask))
        except ValidationError as exc:
            raise ParseError(number, str(exc)) from exc
    return out


def _box_only_ground_truth(lines: list[str]) -> list[GroundTruthInstance] | None:
    """The records of a chunk of box-only rows that all pass the record
    checks, column by column; None for any other chunk."""
    n = len(lines)
    if sum(map(str.endswith, lines, repeat(",,,", n))) != n:
        return None
    tokens = _split_chunk(lines, 9)
    if tokens is None:
        return None
    try:
        boxes = map(Box, *[map(float, tokens[k::9]) for k in range(2, 6)])
        return list(map(GroundTruthInstance, tokens[0::9], tokens[1::9], boxes))
    except (ValueError, ValidationError):
        return None


def parse_ground_truth(
    data: bytes | str,
    image_sizes: Mapping[str, tuple[int, int]] | None = None,
) -> list[GroundTruthInstance]:
    """Parse a ground-truth file; mask dimensions are cross-checked against
    image_sizes when a table is supplied.  A chunk of valid box-only rows is
    parsed column by column, any other chunk row by row."""
    out: list[GroundTruthInstance] = []
    for first, chunk in _chunks(_data_lines(data, GROUND_TRUTH_HEADER)):
        records = _box_only_ground_truth(chunk)
        out += _ground_truth_rows(chunk, first, image_sizes) if records is None else records
    return out


def write_ground_truth(instances: Sequence[GroundTruthInstance]) -> bytes:
    return _table(
        GROUND_TRUTH_HEADER,
        (
            ",".join((g.image_id, g.category_id, _box_fields(g.box), _mask_fields(g.mask)))
            for g in instances
        ),
    )


# -- verification --------------------------------------------------------------


def _verification_rows(
    lines: list[str], first: int, entries: dict[tuple[str, str], int]
) -> None:
    """Add a chunk's rows to entries row by row: the source of every
    verification ParseError."""
    for number, line in _numbered(lines, first):
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


def parse_verification(data: bytes | str) -> VerificationTable:
    """Parse a verification file.  A chunk whose rows all pass the checks,
    with no key repeated or seen before, is added column by column; any other
    chunk row by row, which accepts a repeat of the same sign."""
    entries: dict[tuple[str, str], int] = {}
    for first, chunk in _chunks(_data_lines(data, VERIFICATION_HEADER)):
        tokens = _split_chunk(chunk, 3)
        if tokens is not None:
            # Split ids hold no comma or newline, so non-empty ones are valid.
            images, categories, signs = tokens[0::3], tokens[1::3], tokens[2::3]
            if "" not in images and "" not in categories and {*signs} <= {"1", "-1"}:
                added = dict(zip(zip(images, categories), map(int, signs)))
                if len(added) == len(signs) and entries.keys().isdisjoint(added):
                    entries.update(added)
                    continue
        _verification_rows(chunk, first, entries)
    return VerificationTable(entries)


def write_verification(table: VerificationTable) -> bytes:
    return _table(
        VERIFICATION_HEADER,
        (f"{image},{category},{sign}" for (image, category), sign in sorted(table.items())),
    )


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
    for number, line in _csv_lines(data, STATS_HEADER):
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


def _roi_pool_rows(
    lines: list[str], first: int, images: dict[str, list[Roi]], max_per_image: int
) -> None:
    """Add a chunk's rows to images row by row: the source of every RoI pool
    ParseError."""
    for number, line in _numbered(lines, first):
        parts = _split(line, number, 6)
        _parse_id(parts[0], number, "image_id")
        objectness = None
        if parts[5] != "":
            objectness = _parse_float(parts[5], number, "objectness")
        box = _parse_box(parts[1:5], number)
        try:
            roi = Roi(box, objectness)
        except ValidationError as exc:
            raise ParseError(number, str(exc)) from exc
        per_image = images.setdefault(parts[0], [])
        if len(per_image) >= max_per_image:
            raise ParseError(
                number,
                f"image {parts[0]!r} exceeds the pool limit of {max_per_image} RoIs",
            )
        per_image.append(roi)


def _roi_pool_columns(
    lines: list[str], images: dict[str, list[Roi]], max_per_image: int
) -> bool:
    """Add a chunk to images column by column when its rows all pass the
    record checks and the pool limit; otherwise add nothing and say so."""
    tokens = _split_chunk(lines, 6)
    if tokens is None:
        return False
    image_ids, objectness = tokens[0::6], tokens[5::6]
    if "" in image_ids:
        return False
    try:
        boxes = map(Box, *[map(float, tokens[k::6]) for k in range(1, 5)])
        scores = (
            [float(text) if text else None for text in objectness]
            if "" in objectness
            else map(float, objectness)
        )
        rois = list(map(Roi, boxes, scores))
    except (ValueError, ValidationError):
        return False
    added: dict[str, list[Roi]] = {}
    for image_id, run in groupby(zip(image_ids, rois), itemgetter(0)):
        added.setdefault(image_id, []).extend(map(itemgetter(1), run))
    if any(
        len(images.get(image_id, ())) + len(rois) > max_per_image
        for image_id, rois in added.items()
    ):
        return False
    for image_id, rois in added.items():
        images.setdefault(image_id, []).extend(rois)
    return True


def parse_roi_pool(
    data: bytes | str, max_per_image: int = DEFAULT_POOL_LIMIT
) -> RoiPool:
    """Parse a RoI pool file, a chunk of rows at a time: column by column
    when every row of the chunk is valid, row by row otherwise."""
    images: dict[str, list[Roi]] = {}
    for first, chunk in _chunks(_data_lines(data, ROI_POOL_HEADER)):
        if not _roi_pool_columns(chunk, images, max_per_image):
            _roi_pool_rows(chunk, first, images, max_per_image)
    return RoiPool(
        {image_id: tuple(rois) for image_id, rois in images.items()},
        max_per_image=max_per_image,
    )


def write_roi_pool(pool: RoiPool) -> bytes:
    return _table(
        ROI_POOL_HEADER,
        (
            f"{image_id},{_box_fields(roi.box)},"
            f"{'' if roi.objectness is None else _fmt_float(roi.objectness)}"
            for image_id in sorted(pool.images)
            for roi in pool.images[image_id]
        ),
    )


# -- embeddings ----------------------------------------------------------------


def parse_embeddings(data: bytes | str) -> EmbeddingTable:
    text = _decode(data)
    if "\r" in text:
        raise ParseError(1, "carriage returns are not allowed; files are LF-terminated")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError(1, "missing embeddings header")
    header = lines[0].split(",")
    if header[0] != EMBEDDINGS_HEADER_PREFIX or len(header) < 2:
        raise ParseError(1, f"bad embeddings header {lines[0]!r}")
    dimension = len(header) - 1
    expected = [EMBEDDINGS_HEADER_PREFIX] + [f"v{i}" for i in range(dimension)]
    if header != expected:
        raise ParseError(1, f"bad embeddings header {lines[0]!r}")
    vectors: dict[str, list[float]] = {}
    for number, line in enumerate(lines[1:], start=2):
        if line == "":
            raise ParseError(number, "empty line")
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
    for number, line in _csv_lines(data, header):
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
    for number, line in _csv_lines(data, GROUPS_HEADER):
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
    for number, line in _csv_lines(data, SAMPLED_HEADER):
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


def _matrix_rows(lines: list[str], parse_value, value_name: str):
    """Row by row, cell by cell: the source of every matrix ParseError.
    Every row is parsed before the layout is checked."""
    entries: list[tuple[int, str, object, int]] = []
    for number, line in _numbered(lines, 2):
        parts = _split(line, number, 3)
        roi_index = _parse_int(parts[0], number, "roi_index")
        value = parse_value(parts[2], number, value_name)
        entries.append((roi_index, parts[1], value, number))
    if not entries:
        return np.empty((0, 0)), ()
    # The category order is defined by the rows of RoI 0.
    categories: list[str] = []
    for roi_index, category_id, _, number in entries:
        if roi_index != 0:
            break
        if category_id in categories:
            raise ParseError(number, f"duplicate category {category_id!r} for roi 0")
        categories.append(category_id)
    if not categories:
        raise ParseError(entries[0][3], "first roi_index must be 0")
    n_categories = len(categories)
    if len(entries) % n_categories != 0:
        raise ParseError(entries[-1][3], "matrix ends mid-row")
    rows: list[list] = []
    for r in range(len(entries) // n_categories):
        row = []
        for c in range(n_categories):
            roi_index, category_id, value, number = entries[r * n_categories + c]
            if roi_index != r:
                raise ParseError(number, f"expected roi_index {r}, got {roi_index}")
            if category_id != categories[c]:
                raise ParseError(
                    number, f"expected category {categories[c]!r}, got {category_id!r}"
                )
            row.append(value)
        rows.append(row)
    return np.array(rows), tuple(categories)


def _matches_cycle(names: list[str], categories: list[str], start: int) -> bool:
    """Whether names reads as categories repeated endlessly, from index start."""
    done = 0
    while done < len(names):
        piece = categories[start : start + len(names) - done]
        if names[done : done + len(piece)] != piece:
            return False
        done += len(piece)
        start = 0
    return True


def _matrix_columns(lines: list[str], convert):
    """The (RoI x category) values and the categories of a matrix whose rows
    all parse with convert and whose layout holds, checked a chunk of columns
    at a time; None for any other matrix."""
    value_chunks = []
    categories: list[str] = []
    n_categories = 0  # set by RoI 1's first row, which ends RoI 0's rows
    cells = 0
    for _, chunk in _chunks(lines):
        tokens = _split_chunk(chunk, 3)
        if tokens is None:
            return None
        try:
            rois = np.array(list(map(int, tokens[0::3])), dtype=np.int64)
            # dtype=int is int64 and dtype=float float64; a value out of
            # range raises OverflowError.
            value_chunks.append(np.array(list(map(convert, tokens[2::3])), dtype=convert))
        except (ValueError, OverflowError):
            return None
        names = tokens[1::3]
        if not n_categories:
            nonzero = np.flatnonzero(rois)
            if nonzero.size == 0:
                categories += names
                cells += len(names)
                continue
            categories += names[: nonzero[0]]
            n_categories = len(categories)
            if not n_categories or len(set(categories)) != n_categories:
                return None
        if not (
            np.array_equal(rois, np.arange(cells, cells + len(names)) // n_categories)
            and _matches_cycle(names, categories, cells % n_categories)
        ):
            return None
        cells += len(names)
    if not cells:
        return np.empty((0, 0)), ()
    if not n_categories:
        # Every row is RoI 0's.
        n_categories = len(categories)
        if len(set(categories)) != n_categories:
            return None
    if cells % n_categories:
        return None
    return np.concatenate(value_chunks).reshape(-1, n_categories), tuple(categories)


def _parse_label(text: str, number: int, name: str) -> int:
    value = _parse_int(text, number, name)
    if value not in (-1, 0, 1):
        raise ParseError(number, f"label must be -1, 0 or 1, got {value}")
    return value


def parse_label_matrix(data: bytes | str):
    """Parse a label CSV into a LabelMatrix.  The file is checked column by
    column; one that fails any check is parsed row by row for its error."""
    from .federated import LabelMatrix

    lines = _data_lines(data, LABELS_HEADER)
    matrix = _matrix_columns(lines, int)
    if matrix is None or not ((matrix[0] >= -1) & (matrix[0] <= 1)).all():
        matrix = _matrix_rows(lines, _parse_label, "label")
    values, categories = matrix
    if not categories:
        raise ParseError(1, "label matrix has no rows")
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


def _matrix_file(header: str, categories: Sequence[str], n_rois: int, texts) -> bytes:
    """A long-format matrix file, one line per cell, roi-major, from the
    cells' texts in that order; each category's ",id," is formatted once."""
    middles = [f",{category_id}," for category_id in categories]
    roi_texts = chain.from_iterable(repeat(str(i), len(middles)) for i in range(n_rois))
    return _table(header, map("".join, zip(roi_texts, cycle(middles), texts)))


def write_label_matrix(matrix) -> bytes:
    values = matrix.values
    return _matrix_file(
        LABELS_HEADER,
        matrix.categories,
        values.shape[0],
        map(_LABEL_TEXT.__getitem__, values.ravel().tolist()),
    )


def parse_logit_matrix(data: bytes | str) -> tuple[np.ndarray, tuple[str, ...]]:
    """Parse a logit CSV into a float64 (RoI x category) array and its
    categories, column by column as parse_label_matrix."""
    lines = _data_lines(data, LOGITS_HEADER)
    matrix = _matrix_columns(lines, float)
    if matrix is None:
        matrix = _matrix_rows(lines, _parse_float, "logit")
    values, categories = matrix
    if not categories:
        raise ParseError(1, "logit matrix has no rows")
    return values, categories


def write_logit_matrix(logits: np.ndarray, categories: Sequence[str]) -> bytes:
    arr = np.asarray(logits, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != len(categories):
        raise ValidationError("logit matrix shape does not match the category list")
    # repr() of a Python float is the shortest string that round-trips.
    return _matrix_file(LOGITS_HEADER, categories, arr.shape[0], map(repr, arr.ravel().tolist()))


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
