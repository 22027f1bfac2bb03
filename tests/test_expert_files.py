"""The expert-training file parsers and writers, checked against the
row-at-a-time code they replaced: label and logit matrices, verification
files and tables, ground truth and RoI pools.  The references below are the
bodies as they were; the library must give equal values, dtypes, reprs and
bytes, or the same ParseError line and message.  Two matrix errors named
line 1 and now name their own line; for those only the message is compared
here, and the line is checked against the file."""

import contextlib
import tracemalloc
from itertools import chain, cycle, repeat
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detpipe import (
    BinaryMask,
    Box,
    CategoryGroup,
    GroundTruthInstance,
    Hierarchy,
    LabelMatrix,
    ParseError,
    Prediction,
    Roi,
    RoiPool,
    ValidationError,
    VerificationTable,
    expand_verification,
    fileio,
)
from detpipe.fileio import (
    GROUND_TRUTH_HEADER,
    LABELS_HEADER,
    LOGITS_HEADER,
    PREDICTIONS_HEADER,
    ROI_POOL_HEADER,
    VERIFICATION_HEADER,
    _fmt_float,
    _parse_box,
    _parse_float,
    _parse_id,
    _parse_int,
    _parse_mask_fields,
    _split,
    _table,
)
from detpipe.records import DEFAULT_POOL_LIMIT, NEGATIVE, POSITIVE, _check_id
from detpipe.table import GroundTruthTable, PredictionTable

from oracles import csv_lines_ref
from timing import size_ratio

# -- references ------------------------------------------------------------------


def parse_matrix_ref(data, header, parse_value, value_name):
    entries = []
    for number, line in csv_lines_ref(data, header):
        parts = _split(line, number, 3)
        roi_index = _parse_int(parts[0], number, "roi_index")
        value = parse_value(parts[2], number, value_name)
        entries.append((roi_index, parts[1], value, number))
    if not entries:
        return [], ()
    categories = []
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
        raise ParseError(1, "matrix ends mid-row")
    rows = []
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
    return rows, tuple(categories)


def parse_label_matrix_ref(data):
    def parse_label(text, number, name):
        value = _parse_int(text, number, name)
        if value not in (-1, 0, 1):
            raise ParseError(number, f"label must be -1, 0 or 1, got {value}")
        return value

    rows, categories = parse_matrix_ref(data, LABELS_HEADER, parse_label, "label")
    if not rows:
        raise ParseError(1, "label matrix has no rows")
    try:
        return LabelMatrix(np.asarray(rows, dtype=np.int8), categories)
    except ValidationError as exc:
        raise ParseError(1, str(exc)) from exc


def parse_logit_matrix_ref(data):
    rows, categories = parse_matrix_ref(data, LOGITS_HEADER, _parse_float, "logit")
    if not rows:
        raise ParseError(1, "logit matrix has no rows")
    return np.asarray(rows, dtype=np.float64), categories


def write_label_matrix_ref(matrix):
    return _table(
        LABELS_HEADER,
        (
            f"{i},{category_id},{int(matrix.values[i, j])}"
            for i in range(matrix.values.shape[0])
            for j, category_id in enumerate(matrix.categories)
        ),
    )


def write_label_matrix_cells_ref(matrix):
    """The label writer as it was before it joined a RoI's cells at once:
    three string operations per cell."""
    middles = [f",{category_id}," for category_id in matrix.categories]
    rois = chain.from_iterable(repeat(str(i), len(middles)) for i in range(matrix.values.shape[0]))
    labels = map(("0", "1", "-1").__getitem__, matrix.values.ravel().tolist())
    return _table(LABELS_HEADER, map("".join, zip(rois, cycle(middles), labels)))


def write_logit_matrix_ref(logits, categories):
    arr = np.asarray(logits, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != len(categories):
        raise ValidationError("logit matrix shape does not match the category list")
    return _table(
        LOGITS_HEADER,
        (
            f"{i},{category_id},{_fmt_float(arr[i, j])}"
            for i in range(arr.shape[0])
            for j, category_id in enumerate(categories)
        ),
    )


def verification_entries_ref(entries):
    """VerificationTable's constructor: every entry checked on its own."""
    copied = {}
    for key, sign in entries.items():
        image_id, category_id = key
        _check_id("image_id", image_id)
        _check_id("category_id", category_id)
        if sign not in (POSITIVE, NEGATIVE):
            raise ValidationError(
                f"verification for {key!r} must be {POSITIVE} or {NEGATIVE}, got {sign!r}"
            )
        copied[(image_id, category_id)] = int(sign)
    return copied


def parse_verification_ref(data):
    entries = {}
    for number, line in csv_lines_ref(data, VERIFICATION_HEADER):
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
    return verification_entries_ref(entries)


def parse_ground_truth_ref(data):
    out = []
    for number, line in csv_lines_ref(data, GROUND_TRUTH_HEADER):
        parts = _split(line, number, 9)
        mask = _parse_mask_fields(parts[6:9], number)
        box = _parse_box(parts[2:6], number)
        try:
            out.append(GroundTruthInstance(parts[0], parts[1], box, mask))
        except ValidationError as exc:
            raise ParseError(number, str(exc)) from exc
    return out


def parse_predictions_ref(data):
    out = []
    for number, line in csv_lines_ref(data, PREDICTIONS_HEADER):
        parts = _split(line, number, 10)
        mask = _parse_mask_fields(parts[7:10], number)
        box = _parse_box(parts[3:7], number)
        score = _parse_float(parts[2], number, "score")
        try:
            out.append(Prediction(parts[0], parts[1], score, box, mask))
        except ValidationError as exc:
            raise ParseError(number, str(exc)) from exc
    return out


def parse_roi_pool_ref(data, max_per_image=DEFAULT_POOL_LIMIT):
    images = {}
    for number, line in csv_lines_ref(data, ROI_POOL_HEADER):
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
    return RoiPool(
        {image_id: tuple(rois) for image_id, rois in images.items()},
        max_per_image=max_per_image,
    )


# -- comparison --------------------------------------------------------------------


def outcome(fn, *args):
    """The call's result, or its error type and message."""
    try:
        return "ok", fn(*args)
    except (ValidationError, ValueError, TypeError) as exc:
        return type(exc).__name__, str(exc)


def as_file(header, rows):
    return (header + "\n" + "".join(row + "\n" for row in rows)).encode()


def patched_outcomes(parse, reference, data, chunk_lines, *args):
    expected = outcome(reference, data, *args)
    with mock.patch.object(fileio, "_CHUNK_LINES", chunk_lines):
        actual = outcome(parse, data, *args)
    assert actual[0] == expected[0], (actual, expected)
    if expected[0] != "ok":
        assert actual[1] == expected[1]
    return actual, expected


def same_array(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.flags.c_contiguous
    assert repr(actual) == repr(expected)
    assert actual.tobytes() == expected.tobytes()


# Both now name the line they are about: the row's second +1, the last line.
RELOCATED = ("label matrix rows may contain at most one +1", "matrix ends mid-row")


def check_matrix_outcome(actual, expected, rows):
    """Equal outcomes, except that a relocated error names its line."""
    assert actual[0] == expected[0], (actual, expected)
    if expected[0] == "ok":
        return
    if expected[1] not in [f"line 1: {m}" for m in RELOCATED]:
        assert actual[1] == expected[1]
        return
    line, _, reason = actual[1].partition(": ")
    number = int(line.removeprefix("line "))
    assert f"line 1: {reason}" == expected[1]
    if reason == "matrix ends mid-row":
        assert number == len(rows) + 1
    else:
        # The named line holds a +1 and its row has one +1 before it.
        n_categories = len({row.split(",")[1] for row in rows})
        index = number - 2
        labels = [int(row.split(",")[2]) for row in rows]
        start = index - index % n_categories
        assert labels[index] == 1
        assert labels[start:index].count(1) == 1
        # And it is the first such row.
        assert all(
            labels[s : s + n_categories].count(1) <= 1 for s in range(0, start, n_categories)
        )


# -- strategies --------------------------------------------------------------------

IDS = ["a", "b", "é", "日本", "img 1"]
LABEL_TOKENS = ["0", "1", "-1", "0", "-1", " 1", "+1", "-0", "00", "1_0", "2", "x", ""]
LOGIT_TOKENS = [
    "0.5", "-0.0", "1", "nan", "inf", "-inf", "1e999", "1_0", " 1", "-1e308", "3.25", "x", "",
]
ROI_TOKENS = ["0", "1", "2", "+1", " 0", "1_0", "-1", "x", ""]


@st.composite
def matrix_rows(draw, tokens):
    """The rows of a matrix file: a valid layout with a few defects."""
    n_categories = draw(st.integers(1, 4))
    categories = draw(st.lists(st.sampled_from(IDS), min_size=n_categories, max_size=n_categories, unique=True))
    n_rois = draw(st.integers(0, 4))
    valid = draw(st.booleans())
    value = st.sampled_from(tokens[:3]) if valid else st.sampled_from(tokens)
    rows = [
        f"{r},{c},{draw(value)}" for r in range(n_rois) for c in categories
    ]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        fields = rows[i].split(",")
        defect = draw(
            st.sampled_from(["swap", "drop", "duplicate", "roi", "category", "short", "long", "empty", "truncate"])
        )
        if defect == "swap":
            j = draw(st.integers(0, len(rows) - 1))
            rows[i], rows[j] = rows[j], rows[i]
        elif defect == "drop":
            del rows[i]
        elif defect == "duplicate":
            rows.insert(i, rows[i])
        elif defect == "roi":
            fields[0] = draw(st.sampled_from(ROI_TOKENS))
            rows[i] = ",".join(fields)
        elif defect == "category":
            # A row emptied by an earlier defect has one field; the slice appends to it.
            fields[1:2] = [draw(st.sampled_from(IDS + [""]))]
            rows[i] = ",".join(fields)
        elif defect == "short":
            rows[i] = ",".join(fields[:2])
        elif defect == "long":
            rows[i] = rows[i] + ",0"
        elif defect == "empty":
            rows[i] = ""
        else:
            del rows[i:]
        if not rows:
            break
    return rows


# Ids as the category-list parser accepts them, non-ASCII among them.
CATEGORY_IDS = st.sampled_from(IDS) | st.text(
    st.characters(blacklist_characters=",\n\r", blacklist_categories=("Cs",)), min_size=1, max_size=6
)


def label_matrix(values, categories):
    return LabelMatrix(np.asarray(values, dtype=np.int8), tuple(categories))


def draw_labels(data, n_rois: int, n_categories: int) -> np.ndarray:
    """Labels -1 or 0 in every cell, then +1 in at most one cell a RoI."""
    cells = data.draw(st.lists(st.sampled_from([-1, 0]), min_size=n_rois * n_categories, max_size=n_rois * n_categories))
    values = np.array(cells, dtype=np.int8).reshape(n_rois, n_categories)
    for row in range(n_rois):
        column = data.draw(st.integers(-1, n_categories - 1))
        if column >= 0:
            values[row, column] = 1
    return values


# -- matrices ------------------------------------------------------------------------


class TestMatrices:
    @given(matrix_rows(LABEL_TOKENS), st.integers(1, 4))
    @settings(max_examples=400, deadline=None)
    @example(["0,a,0", "0,b,0", "1,a,1", "1,b,1"], 4)
    @example(["0,a,0", "0,b,0", "1,a,1"], 2)
    @example(["0,a,1", "0,b,1", "1,a,1", "1,b,1"], 1)
    @example(["0,a,+1", "0,b, 1", "1,a,-0", "1,b,00"], 3)
    @example(["0,a,1_0", "0,b,0"], 1)
    @example(["1,a,0", "1,b,0"], 1)
    @example(["0,a,0", "0,a,0"], 1)
    @example([f"{10**30},a,0"], 1)
    @example([f"0,a,{-2**63}"], 1)
    @example(["0,a,0", "0,b,0", "0,c,0", "1,a,0", "1,b,0", "1,c,0", "2,a,0"], 2)
    # Layout cases: a RoI index beyond int64 and one of -1 after RoI 0, a
    # category first seen after RoI 0, a repeat in a RoI 0 over two chunks.
    @example(["0,a,0", "0,b,0", "99999999999999999999,a,0", "1,b,0"], 1)
    @example(["0,a,0", "0,b,0", "-1,a,0", "1,b,0"], 2)
    @example(["0,a,0", "0,b,0", "1,c,0", "1,a,0"], 3)
    @example(["0,a,0", "0,b,0", "0,a,0", "1,a,0"], 2)
    def test_parse_label_matrix(self, rows, chunk_lines):
        data = as_file(LABELS_HEADER, rows)
        expected = outcome(parse_label_matrix_ref, data)
        with mock.patch.object(fileio, "_CHUNK_LINES", chunk_lines):
            actual = outcome(fileio.parse_label_matrix, data)
        check_matrix_outcome(actual, expected, rows)
        if expected[0] == "ok":
            same_array(actual[1].values, expected[1].values)
            assert actual[1].categories == expected[1].categories
            assert fileio.write_label_matrix(actual[1]) == write_label_matrix_ref(expected[1])

    @given(matrix_rows(LOGIT_TOKENS), st.integers(1, 4))
    @settings(max_examples=400, deadline=None)
    @example(["0,a,-0.0", "0,b,nan", "1,a,inf", "1,b,1e999"], 1)
    @example(["0,a,1_0", "0,b, 1", "1,a,-1e308", "1,b,x"], 3)
    @example(["0,a,0", "0,b,0", "1,b,0", "1,a,0"], 2)
    # Layout cases: a RoI index beyond int64 and one of -1 after RoI 0, a
    # category first seen after RoI 0, a repeat in a RoI 0 over two chunks.
    @example(["0,a,0", "0,b,0", "99999999999999999999,a,0", "1,b,0"], 1)
    @example(["0,a,0", "0,b,0", "-1,a,0", "1,b,0"], 2)
    @example(["0,a,0", "0,b,0", "1,c,0", "1,a,0"], 3)
    @example(["0,a,0", "0,b,0", "0,a,0", "1,a,0"], 2)
    def test_parse_logit_matrix(self, rows, chunk_lines):
        data = as_file(LOGITS_HEADER, rows)
        expected = outcome(parse_logit_matrix_ref, data)
        with mock.patch.object(fileio, "_CHUNK_LINES", chunk_lines):
            actual = outcome(fileio.parse_logit_matrix, data)
        check_matrix_outcome(actual, expected, rows)
        if expected[0] == "ok":
            same_array(actual[1][0], expected[1][0])
            assert actual[1][1] == expected[1][1]
            assert fileio.write_logit_matrix(*actual[1]) == write_logit_matrix_ref(*expected[1])

    def test_errors_at_chunk_boundaries(self):
        # 500 categories over 20 RoIs: RoI boundaries fall inside full-size
        # chunks and on either side of the boundaries between them.
        categories = [f"c{j:03d}" for j in range(500)]
        good = [f"{r},{c},0" for r in range(20) for c in categories]
        chunk = fileio._CHUNK_LINES
        for index in (0, 499, 500, chunk - 1, chunk, 2 * chunk - 1, 2 * chunk, len(good) - 1):
            r, c = divmod(index, 500)
            for bad in (
                f"{r + 1},{categories[c]},0",
                f"{r},{categories[(c + 1) % 500]},0",
                f"{r},{categories[c]},2",
                f"{r},{categories[c]},x",
                f"{r},{categories[c]}",
                "",
            ):
                rows = list(good)
                rows[index] = bad
                data = as_file(LABELS_HEADER, rows)
                expected = outcome(parse_label_matrix_ref, data)
                assert expected[0] == "ParseError"
                check_matrix_outcome(outcome(fileio.parse_label_matrix, data), expected, rows)
            for spelling in (" 0", "+0", "-0", "00"):
                rows = list(good)
                rows[index] = f"{r},{categories[c]},{spelling}"
                data = as_file(LABELS_HEADER, rows)
                actual = fileio.parse_label_matrix(data)
                same_array(actual.values, parse_label_matrix_ref(data).values)

    def test_roi_zero_across_chunks(self):
        # RoI 0's rows run past the first chunk, so the category order is
        # known only once RoI 1 begins.
        categories = [f"c{j}" for j in range(7)]
        rows = [
            f"{r},{c},{1 if j == r else (r + j) % 2 - 1}"
            for r in range(3)
            for j, c in enumerate(categories)
        ]
        for chunk_lines in (1, 2, 3, 6, 7, 8, 21, 22):
            with mock.patch.object(fileio, "_CHUNK_LINES", chunk_lines):
                for file_rows in (rows, rows[:7]):
                    data = as_file(LABELS_HEADER, file_rows)
                    actual = fileio.parse_label_matrix(data)
                    expected = parse_label_matrix_ref(data)
                    same_array(actual.values, expected.values)
                    assert actual.categories == expected.categories

    def test_failing_chunk_is_parsed_alone(self):
        # A field error in the third chunk sends that chunk alone to the row
        # path, and wins over a misplaced cell in the first chunk; a file
        # whose only fault is its layout reaches the row path not at all.
        categories = [f"c{j:03d}" for j in range(500)]
        chunk = fileio._CHUNK_LINES
        index = 2 * chunk + 500
        for parse, header, bad_value, reason in (
            (fileio.parse_label_matrix, LABELS_HEADER, "2", "label must be -1, 0 or 1, got 2"),
            (fileio.parse_logit_matrix, LOGITS_HEADER, "x", "bad logit 'x'"),
        ):
            misplaced = [f"{r},{c},0" for r in range(20) for c in categories]
            misplaced[600] = f"1,{categories[1]},0"
            field_error = list(misplaced)
            field_error[index] = f"{index // 500},{categories[index % 500]},{bad_value}"
            for rows, calls, message in (
                (field_error, 1, f"line {index + 2}: {reason}"),
                (misplaced, 0, "line 602: expected category 'c100', got 'c001'"),
            ):
                spy = mock.patch.object(
                    fileio, "_matrix_field_error", wraps=fileio._matrix_field_error
                )
                with spy as row_path:
                    assert outcome(parse, as_file(header, rows)) == ("ParseError", message)
                assert row_path.call_count == calls
                if calls:
                    chunk_rows = rows[2 * chunk : 3 * chunk]
                    assert row_path.call_args.args[:2] == (chunk_rows, 2 * chunk + 2)

    def test_empty_files(self):
        for parse, reference, header in (
            (fileio.parse_label_matrix, parse_label_matrix_ref, LABELS_HEADER),
            (fileio.parse_logit_matrix, parse_logit_matrix_ref, LOGITS_HEADER),
        ):
            for data in (b"", (header + "\n").encode(), (header + "\n\n").encode()):
                assert outcome(parse, data) == outcome(reference, data)

    @given(
        st.integers(0, 5),
        st.lists(st.sampled_from(IDS), min_size=0, max_size=4, unique=True),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_writers(self, n_rois, categories, data):
        values = data.draw(
            st.lists(st.sampled_from([-1, 0, 1]), min_size=n_rois * len(categories), max_size=n_rois * len(categories))
        )
        logits = data.draw(
            st.lists(
                st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([-0.0, 0.1, 1e308]),
                min_size=n_rois * len(categories),
                max_size=n_rois * len(categories),
            )
        )
        shape = (n_rois, len(categories))
        array = np.array(values, dtype=np.int8).reshape(shape)
        try:
            matrix = label_matrix(array, categories)
        except ValidationError:
            matrix = label_matrix(np.minimum(array, 0), categories)
        assert fileio.write_label_matrix(matrix) == write_label_matrix_ref(matrix)
        logit_array = np.array(logits, dtype=np.float64).reshape(shape)
        assert fileio.write_logit_matrix(logit_array, categories) == write_logit_matrix_ref(
            logit_array, categories
        )
        # Non-contiguous and non-float inputs are read row-major as before.
        transposed = np.ascontiguousarray(logit_array.T).T
        assert fileio.write_logit_matrix(transposed, categories) == write_logit_matrix_ref(
            transposed, categories
        )
        ints = array.astype(np.int64)
        assert fileio.write_logit_matrix(ints, categories) == write_logit_matrix_ref(ints, categories)

    @given(
        st.lists(CATEGORY_IDS, min_size=0, max_size=30, unique=True),
        st.integers(0, 40),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_label_writer_matches_the_cell_formatter(self, categories, n_rois, data):
        matrix = label_matrix(draw_labels(data, n_rois, len(categories)), categories)
        assert fileio.write_label_matrix(matrix) == write_label_matrix_cells_ref(matrix)

    def test_logit_writer_shape_error(self):
        for logits, categories in ((np.zeros((2, 3)), ["a", "b"]), (np.zeros(3), ["a", "b", "c"])):
            assert outcome(fileio.write_logit_matrix, logits, categories) == outcome(
                write_logit_matrix_ref, logits, categories
            )


# -- verification ------------------------------------------------------------------


@st.composite
def verification_rows(draw):
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        image_id = draw(st.sampled_from(IDS[:3] + [""] * draw(st.sampled_from([0, 0, 1]))))
        category_id = draw(st.sampled_from(["x", "y", "日"] + [""] * draw(st.sampled_from([0, 0, 1]))))
        sign = draw(st.sampled_from(["1", "-1", "1", "-1", "0", " 1", "+1", "01", ""]))
        row = f"{image_id},{category_id},{sign}"
        defect = draw(st.sampled_from([None] * 6 + ["short", "long", "empty"]))
        if defect == "short":
            row = f"{image_id},{category_id}"
        elif defect == "long":
            row += ",1"
        elif defect == "empty":
            row = ""
        rows.append(row)
    return rows


class TestVerification:
    @given(verification_rows(), st.integers(1, 4))
    @settings(max_examples=400, deadline=None)
    @example(["a,x,1", "a,x,-1"], 1)
    @example(["a,x,1", "a,x,-1"], 2)
    @example(["a,x,1", "a,x,1", "b,x,-1"], 2)
    @example(["a,x,1", "b,x,-1", "a,x,1"], 2)
    @example(["a,x,1", "b,x,-1", ",x,1", "a,x,-1"], 4)
    @example(["a,x, 1"], 1)
    def test_parse(self, rows, chunk_lines):
        data = as_file(VERIFICATION_HEADER, rows)
        actual, expected = patched_outcomes(
            fileio.parse_verification, parse_verification_ref, data, chunk_lines
        )
        if expected[0] == "ok":
            entries = actual[1].entries
            assert list(entries.items()) == list(expected[1].items())
            assert all(type(sign) is int for sign in entries.values())

    def test_conflicts_across_chunk_boundaries(self):
        chunk = fileio._CHUNK_LINES
        rows = [f"im{i},c{i % 7},{1 if i % 3 else -1}" for i in range(2 * chunk + 5)]
        for first, second in ((0, chunk), (chunk - 1, chunk), (5, 2 * chunk + 4), (chunk, chunk + 1)):
            bad = list(rows)
            image_id, category_id, sign = rows[first].split(",")
            bad[second] = f"{image_id},{category_id},{-int(sign)}"
            data = as_file(VERIFICATION_HEADER, bad)
            expected = outcome(parse_verification_ref, data)
            assert expected == (
                "ParseError",
                f"line {second + 2}: conflicting verification for image "
                f"{image_id!r}, category {category_id!r}",
            )
            assert outcome(fileio.parse_verification, data) == expected
            # The same key repeated with the same sign is accepted.
            bad[second] = rows[first]
            data = as_file(VERIFICATION_HEADER, bad)
            assert fileio.parse_verification(data).entries == parse_verification_ref(data)

    @given(
        st.dictionaries(
            st.tuples(st.sampled_from(IDS + ["", "a,b", "a\nb", "a\rb"]), st.sampled_from(["x", "y", "", "x,y"]))
            | st.sampled_from([("a",), ("a", "x", "z"), "ax", ("a", 1), (None, "x")]),
            st.sampled_from([1, -1, 1, -1, 0, 2, True, False, 1.0, -1.0, np.int8(1), np.int64(-1), "1", None]),
            max_size=6,
        )
    )
    @settings(max_examples=400, deadline=None)
    @example({("a", "x"): 1, ("b", "y"): -1})
    @example({})
    @example({("a", "x"): True})
    @example({("a", "x"): 1, "by": -1})
    @example({("a", "x"): 1, ("b", "y", "z"): -1})
    def test_table_constructor(self, entries):
        expected = outcome(verification_entries_ref, entries)
        actual = outcome(VerificationTable, entries)
        assert actual[0] == expected[0], (actual, expected)
        if expected[0] == "ok":
            assert list(actual[1].entries.items()) == list(expected[1].items())
            assert [type(v) for v in actual[1].entries.values()] == [int] * len(expected[1])
            assert actual[1].entries is not entries
        else:
            assert actual[1] == expected[1]


# -- ground truth and RoI pools ------------------------------------------------------

COORDINATES = ["0", "1", "2.5", "1_0", " 3", "-0.0", "1e308", "nan", "inf", "1e999", "x", ""]


@st.composite
def box_fields(draw, valid):
    if valid:
        x = sorted(draw(st.lists(st.sampled_from(COORDINATES[:7]), min_size=2, max_size=2)), key=float)
        y = sorted(draw(st.lists(st.sampled_from(COORDINATES[:7]), min_size=2, max_size=2)), key=float)
        return [x[0], y[0], x[1], y[1]]
    return draw(st.lists(st.sampled_from(COORDINATES), min_size=4, max_size=4))


@st.composite
def ground_truth_rows(draw):
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        valid = draw(st.integers(0, 3)) > 0
        ids = [draw(st.sampled_from(IDS)), draw(st.sampled_from(IDS))]
        if not valid and draw(st.booleans()):
            ids[draw(st.integers(0, 1))] = ""
        mask = draw(st.sampled_from([",,"] * 5 + ["2,2,1 3", "2,2,0 4", "3,2,1 3", "2,,", "2,2,x"]))
        row = ",".join([*ids, *draw(box_fields(valid)), mask])
        defect = draw(st.sampled_from([None] * 8 + ["short", "empty"]))
        rows.append(row.rsplit(",", 1)[0] if defect == "short" else "" if defect == "empty" else row)
    return rows


@st.composite
def roi_rows(draw):
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        valid = draw(st.integers(0, 3)) > 0
        image_id = draw(st.sampled_from(["a", "b", "é"] + ([] if valid else [""])))
        objectness = draw(st.sampled_from(["0.5", "", "1_0", "-0.0"] + ([] if valid else ["nan", "inf", "x", " "])))
        row = ",".join([image_id, *draw(box_fields(valid)), objectness])
        defect = draw(st.sampled_from([None] * 8 + ["long", "empty"]))
        rows.append(row + ",1" if defect == "long" else "" if defect == "empty" else row)
    return rows


def same_records(actual, expected):
    assert actual == expected
    assert list(map(repr, actual)) == list(map(repr, expected))


class TestGroundTruthAndPools:
    @given(ground_truth_rows(), st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    @example([",c,0,0,1,1,,,", "a,c,0,0,1,1,,,"], 1)
    @example(["a,c,0,0,1,1,,,", "a,c,0,0,1,inf,,,"], 1)
    @example(["a,c,0,0,1e308,1e308,,,", "a,c,1e308,1e308,1e308,1e308,,,"], 2)
    def test_parse_ground_truth(self, rows, chunk_lines):
        data = as_file(GROUND_TRUTH_HEADER, rows)
        actual, expected = patched_outcomes(
            fileio.parse_ground_truth, parse_ground_truth_ref, data, chunk_lines
        )
        if expected[0] == "ok":
            same_records(actual[1].rows(), expected[1])
            assert all(type(g.box.x_min) is float for g in actual[1])

    @given(roi_rows(), st.integers(1, 4), st.sampled_from([1, 2, 3, DEFAULT_POOL_LIMIT]))
    @settings(max_examples=300, deadline=None)
    @example(["a,0,0,1,1,", "a,0,0,1,1,0.5", "b,0,0,1,1,", "a,0,0,1,1,"], 2, 2)
    @example(["a,0,0,1,1,", "b,0,0,1,1,", "a,0,0,1,1,", "b,0,0,1,1,nan"], 3, 2)
    def test_parse_roi_pool(self, rows, chunk_lines, limit):
        data = as_file(ROI_POOL_HEADER, rows)
        actual, expected = patched_outcomes(
            fileio.parse_roi_pool, parse_roi_pool_ref, data, chunk_lines, limit
        )
        if expected[0] == "ok":
            assert list(actual[1].images) == list(expected[1].images)
            for image_id, rois in expected[1].images.items():
                same_records(actual[1].images[image_id], rois)
            assert actual[1].max_per_image == expected[1].max_per_image

    def test_bad_rows_at_chunk_boundaries(self):
        chunk = fileio._CHUNK_LINES
        n = 2 * chunk + 3
        cases = (
            (
                fileio.parse_ground_truth, parse_ground_truth_ref, GROUND_TRUTH_HEADER,
                "im,cat,1,2,3,4,,,",
                ["im,cat,3,2,1,4,,,", "im,cat,1,2,3,inf,,,", "im,,1,2,3,4,,,", "im,cat,1,2,3,4,2,2,5", ""],
            ),
            (
                fileio.parse_roi_pool, parse_roi_pool_ref, ROI_POOL_HEADER,
                "im{i},1,2,3,4,0.5",
                ["im,3,2,1,4,0.5", "im,1,2,3,4,nan", ",1,2,3,4,", "im,1,2,3,4,x", "im,1,2,3"],
            ),
            (
                fileio.parse_verification, parse_verification_ref, VERIFICATION_HEADER,
                "im{i},cat,1",
                ["im,,1", "im,cat,0", "im,cat"],
            ),
        )
        for parse, reference, header, good, bads in cases:
            for index in (0, chunk - 1, chunk, 2 * chunk - 1, 2 * chunk, n - 1):
                for bad in bads:
                    rows = [good.format(i=i) for i in range(n)]
                    rows[index] = bad
                    data = as_file(header, rows)
                    expected = outcome(reference, data)
                    assert expected[0] == "ParseError", (bad, expected)
                    assert expected[1].startswith(f"line {index + 2}: "), (bad, expected)
                    assert outcome(parse, data) == expected

    def test_pool_limit_across_chunks(self):
        # The limit is reached in the second chunk by an image of the first.
        rows = ["a,0,0,1,1,0.5"] * 3 + ["b,0,0,1,1,"] * 2 + ["a,0,0,1,1,"]
        data = as_file(ROI_POOL_HEADER, rows)
        for chunk_lines in (1, 2, 3, 4, 6):
            with mock.patch.object(fileio, "_CHUNK_LINES", chunk_lines):
                assert outcome(fileio.parse_roi_pool, data, 3) == outcome(
                    parse_roi_pool_ref, data, 3
                ) == ("ParseError", "line 7: image 'a' exceeds the pool limit of 3 RoIs")


# -- what a pipeline hands on -------------------------------------------------------
#
# A stage hands the value it wrote to the later readers of the file only when
# parsing the bytes would give exactly that value.  These are the values the
# CLI hands: a label matrix with cells, a RoI pool taken in image order from
# a parsed one, and category groups as a group file records them.

COORDINATE_VALUES = st.sampled_from([0.0, -0.0, 1.0, 2.5, 0.1, 1e-300, 5e-324, 1e308, -1e308])
OBJECTNESS_VALUES = st.none() | st.sampled_from([0.5, -0.0, 0.1, 1e-300, 1e308]) | st.floats(-2, 2)


@st.composite
def pools(draw):
    images = {}
    for image_id in draw(st.lists(st.sampled_from(IDS), unique=True, max_size=4)):
        rois = []
        for _ in range(draw(st.integers(1, 5))):
            x = sorted(draw(st.lists(COORDINATE_VALUES, min_size=2, max_size=2)))
            y = sorted(draw(st.lists(COORDINATE_VALUES, min_size=2, max_size=2)))
            rois.append(Roi(Box(x[0], y[0], x[1], y[1]), draw(OBJECTNESS_VALUES)))
        images[image_id] = tuple(rois)
    return RoiPool(images)


def same_pool(actual, expected):
    assert type(actual.image_ids) is tuple and actual.image_ids == expected.image_ids
    for name in ("image_codes", "boxes", "objectness"):
        same_array(getattr(actual, name), getattr(expected, name))
    assert actual.max_per_image == expected.max_per_image


MASK_VALUES = st.sampled_from([None, None, BinaryMask(2, 2, [1, 3]), BinaryMask(3, 1, [0, 3])])
SCORE_VALUES = st.sampled_from([0.0, -0.0, 1.0, 0.5, 1e-300, 5e-324]) | st.floats(0, 1)


@st.composite
def annotation_tables(draw, kind):
    """A table of kind, of rows or of two tables of rows concatenated, and
    an index array into it: any rows, in any order, repeats allowed."""

    row_type = Prediction if kind is PredictionTable else GroundTruthInstance

    def rows():
        out = []
        for _ in range(draw(st.integers(0, 6))):
            x = sorted(draw(st.lists(COORDINATE_VALUES, min_size=2, max_size=2)))
            y = sorted(draw(st.lists(COORDINATE_VALUES, min_size=2, max_size=2)))
            fields = [draw(st.sampled_from(IDS)), draw(st.sampled_from(IDS[:3]))]
            if kind is PredictionTable:
                fields.append(draw(SCORE_VALUES))
            out.append(row_type(*fields, Box(x[0], y[0], x[1], y[1]), draw(MASK_VALUES)))
        return out

    if kind is PredictionTable and draw(st.booleans()):
        table = PredictionTable.concat([PredictionTable.from_rows(rows()), PredictionTable.from_rows(rows())])
    else:
        table = kind.from_rows(rows())
    indices = draw(st.lists(st.integers(0, len(table) - 1), max_size=8)) if len(table) else []
    return table, np.array(indices, dtype=np.intp)


def same_table(actual, expected):
    """Equal tables, field by field: vocabularies, codes and the columns
    of rows (a predictions table's lines aside)."""
    assert type(actual) is type(expected)
    for name in expected.__slots__:
        value = getattr(expected, name)
        if name.endswith("_ids"):
            assert type(getattr(actual, name)) is tuple and getattr(actual, name) == value
        elif isinstance(value, np.ndarray):
            same_array(getattr(actual, name), value)
        elif name == "masks":
            assert getattr(actual, name) == value


class TestHandOff:
    @given(st.sampled_from([PredictionTable, GroundTruthTable]).flatmap(annotation_tables))
    @settings(max_examples=300, deadline=None)
    @example((PredictionTable.from_rows([Prediction("a", "x", 0.5, Box(0, 0, 1, 1)), Prediction("b", "y", 0.5, Box(0, 0, 1, 1))]), np.array([1])))
    def test_annotation_tables(self, table_and_indices):
        # A taken table, written and parsed back, is the taken table: each
        # vocabulary holds exactly the ids of the taken rows.
        table, indices = table_and_indices
        write, parse = {
            PredictionTable: (fileio.write_predictions, fileio.parse_prediction_table),
            GroundTruthTable: (fileio.write_ground_truth, fileio.parse_ground_truth),
        }[type(table)]
        taken = table.take(indices)
        same_table(parse(write(taken)), taken)

    @given(st.lists(CATEGORY_IDS, min_size=1, max_size=6, unique=True), st.integers(1, 5), st.data())
    @settings(max_examples=150, deadline=None)
    def test_label_matrix(self, categories, n_rois, data):
        matrix = label_matrix(draw_labels(data, n_rois, len(categories)), categories)
        parsed = fileio.parse_label_matrix(fileio.write_label_matrix(matrix))
        same_array(parsed.values, matrix.values)
        assert not parsed.values.flags.writeable and not matrix.values.flags.writeable
        assert type(parsed.categories) is tuple and parsed.categories == matrix.categories

    @given(pools(), st.integers(1, 3), st.data())
    @settings(max_examples=200, deadline=None)
    def test_roi_pool(self, pool, k, data):
        # partition-pool's parts: each image's rows j, j + k, ... in image
        # order, taken from the pool the file parses to.
        parsed = fileio.parse_roi_pool(fileio.write_roi_pool(pool))
        order = np.argsort(parsed.image_codes, kind="stable")
        within = np.arange(len(order)) - np.searchsorted(parsed.image_codes[order], parsed.image_codes[order])
        part = parsed.take(order[within % k == data.draw(st.integers(0, k - 1))])
        for value in (parsed, part):
            same_pool(fileio.parse_roi_pool(fileio.write_roi_pool(value)), value)

    @given(st.lists(st.lists(CATEGORY_IDS, min_size=1, max_size=4, unique=True), max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_category_groups(self, members):
        groups = [CategoryGroup(tuple(m), provenance="rank") for m in members]
        written = [CategoryGroup(group.categories) for group in groups]
        parsed = fileio.parse_category_groups(fileio.write_category_groups(groups))
        assert [(g.categories, g.provenance, g.rank_range) for g in parsed] == [
            (g.categories, g.provenance, g.rank_range) for g in written
        ]
        assert all(type(g.categories) is tuple for g in parsed)


# -- the column path ---------------------------------------------------------------

FIXTURE = Path(__file__).parent / "fixtures" / "expert_pipeline"
PIPELINE = Path(__file__).parent / "fixtures" / "pipeline"


def test_valid_files_never_take_the_row_path():
    # The row loops are the fallback for a chunk or file that fails a check;
    # a valid file, masked or not, whatever the chunk size, must not reach
    # them.
    files = {
        name: (FIXTURE / name).read_bytes()
        for name in ("verification.csv", "ground_truth.csv", "rois.csv", "expert_0.csv", "logits_im0.csv")
    }
    labels = (FIXTURE / "expected" / "labels_im0.csv").read_bytes()
    masked = [(PIPELINE / name).read_bytes() for name in ("preds_a.csv", "preds_b.csv")]
    rows = fileio.parse_predictions(masked[0])
    masked_ground_truth = fileio.write_ground_truth(
        [GroundTruthInstance(p.image_id, p.category_id, p.box, p.mask) for p in rows]
    )
    assert all(gt.mask is not None for gt in fileio.parse_ground_truth(masked_ground_truth).rows())
    # Four coordinates of 1e308 make a valid box whose sum overflows.
    huge = "1e308,1e308,1e308,1e308"
    row_paths = ("_matrix_field_error", "_verification_rows", "_roi_pool_rows", "_annotation_rows")
    for chunk_lines in (*range(1, 13), 4096):
        with mock.patch.object(fileio, "_CHUNK_LINES", chunk_lines), contextlib.ExitStack() as stack:
            for name in row_paths:
                stack.enter_context(mock.patch.object(fileio, name, side_effect=AssertionError(name)))
            fileio.parse_label_matrix(labels)
            fileio.parse_logit_matrix(files["logits_im0.csv"])
            fileio.parse_verification(files["verification.csv"])
            fileio.parse_ground_truth(files["ground_truth.csv"])
            fileio.parse_roi_pool(files["rois.csv"])
            fileio.parse_prediction_table(files["expert_0.csv"])
            for data in masked:
                fileio.parse_prediction_table(data)
            fileio.parse_ground_truth(masked_ground_truth)
            fileio.parse_ground_truth(f"{GROUND_TRUTH_HEADER}\nim0,c,{huge},,,\n")
            fileio.parse_roi_pool(f"{ROI_POOL_HEADER}\nim0,{huge},\n")


# Tokens on which a column check and a row check could part: NaN, infinities,
# coordinates whose sum overflows, -0.0, empty fields, mask fields partly
# empty, and runs that are not a mask of their size.
TOKENS = ["0", "1", "0.5", "-0.0", "1e308", "-1e308", "nan", "inf", "-inf", "x", ""]
VALID_MASKS = [",,", ",,", "2,2,1 3", "2,2,0 4", "1,1,0 1"]
BAD_MASKS = ["2,2,", "2,,1 3", ",2,1 3", ",,1 3", "2,2,1 2", "2,2,0 0 4", "2,2,1 x", "0,2,0", "2,2,1  3"]
ANNOTATIONS = {
    True: (fileio.parse_prediction_table, parse_predictions_ref, PREDICTIONS_HEADER),
    False: (fileio.parse_ground_truth, parse_ground_truth_ref, GROUND_TRUTH_HEADER),
}


@st.composite
def annotation_files(draw):
    """Whether the file is a predictions file (scored) or a ground-truth
    file, and its bytes: valid rows, masked or not, some with one field
    made any of the tokens or their mask fields made bad."""
    scored = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        ids = [draw(st.sampled_from(IDS)) for _ in "ic"]
        scores = [draw(st.sampled_from(TOKENS[:4]))] * scored
        x, y = (sorted(draw(st.lists(st.sampled_from(TOKENS[:6]), min_size=2, max_size=2)), key=float) for _ in "xy")
        fields = [*ids, *scores, x[0], y[0], x[1], y[1]]
        mask = draw(st.sampled_from(VALID_MASKS))
        if not draw(st.integers(0, 3)):
            if draw(st.booleans()):
                fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(TOKENS))
            else:
                mask = draw(st.sampled_from(BAD_MASKS))
        rows.append(",".join([*fields, mask]))
    return scored, as_file(ANNOTATIONS[scored][2], rows)


@given(annotation_files(), st.sampled_from([1, 4096]))
@settings(max_examples=400, deadline=None)
@example((False, as_file(GROUND_TRUTH_HEADER, ["a,c,1e308,1e308,1e308,1e308,,,"])), 4096)
@example((True, as_file(PREDICTIONS_HEADER, ["a,c,0.5,1e308,1e308,1e308,1e308,2,2,1 3"])), 4096)
@example((True, as_file(PREDICTIONS_HEADER, ["a,c,-0.0,-0.0,-0.0,-0.0,-0.0,1,1,0 1"])), 1)
@example((True, as_file(PREDICTIONS_HEADER, ["a,c,0.5,0,0,1,1,2,2,1 3", "a,c,0.5,0,0,1,1,2,,1 3"])), 4096)
@example((False, as_file(GROUND_TRUTH_HEADER, ["a,c,0,0,1,1,,,", "a,c,0,0,1,1,2,2,"])), 1)
@example((False, as_file(GROUND_TRUTH_HEADER, ["a,c,0,0,1,1,2,2,0 4", "a,c,0,0,1,1,2,2,1 2"])), 4096)
@example((False, as_file(GROUND_TRUTH_HEADER, ["a,c,0,0,1,1,,,", "a,c,0,-inf,1,1,2,2,0 4"])), 4096)
def test_masked_and_box_only_rows_parse_as_the_rows_do(case, chunk_lines):
    # Every chunk is parsed by columns; a chunk the columns reject is walked
    # row by row for its first error.  So a valid file never reaches the row
    # walker and gives the reference's rows, and any other file gives the
    # reference's ParseError, line and message.
    scored, data = case
    parse, reference, _ = ANNOTATIONS[scored]
    expected = outcome(reference, data)
    walker = mock.patch.object(fileio, "_annotation_rows", wraps=fileio._annotation_rows)
    with mock.patch.object(fileio, "_CHUNK_LINES", chunk_lines), walker as row_path:
        actual = outcome(parse, data)
    if expected[0] == "ok":
        assert actual[0] == "ok", actual
        same_records(actual[1].rows(), expected[1])
        assert not row_path.called
    else:
        assert actual == expected


# -- linear cost -------------------------------------------------------------------


def test_expand_verification_time_is_linear():
    # Three levels: roots r*, mid-level m*, leaves l*.  Every image verifies
    # four leaves positive and a root and a mid-level category negative, so
    # each entry expands to several and a quadratic expansion would show.
    edges = [(f"m{i}", f"r{i % 3}") for i in range(12)]
    edges += [(f"l{i}", f"m{i % 12}") for i in range(120)]
    hierarchy = Hierarchy(edges)

    def table(n_images):
        entries = {}
        for i in range(n_images):
            negative_root = (i + 1) % 3
            leaves = [j for j in range(120) if j % 12 % 3 != negative_root]
            for k in range(4):
                entries[(f"im{i}", f"l{leaves[(7 * i + 31 * k) % len(leaves)]}")] = POSITIVE
            entries[(f"im{i}", f"m{negative_root + 3 * (i % 4)}")] = NEGATIVE
            entries[(f"im{i}", f"r{negative_root}")] = NEGATIVE
        return VerificationTable(entries)

    small, large = table(600), table(1200)
    assert size_ratio(lambda t: expand_verification(t, hierarchy), small, large) <= 2.5


def test_parse_label_matrix_time_is_linear():
    categories = [f"c{j:03d}" for j in range(500)]

    def matrix_file(n_rois):
        rows = [
            f"{r},{c},{1 if j == r % 500 else -1 if (r + j) % 3 else 0}"
            for r in range(n_rois)
            for j, c in enumerate(categories)
        ]
        return as_file(LABELS_HEADER, rows)

    small, large = matrix_file(40), matrix_file(80)
    assert size_ratio(fileio.parse_label_matrix, small, large) <= 2.5


def test_parse_label_matrix_memory_per_cell():
    # The parse holds the file's lines and one chunk's tokens, not a token
    # per cell.  Before the matrices shared one parse path this file peaked
    # at 90.3 B/cell (Python 3.11, numpy 2.4); the bound is 1.25x that.
    categories = [f"c{j:03d}" for j in range(500)]
    rows = [
        f"{r},{c},{1 if j == r % 500 else -1 if (r + j) % 3 else 0}"
        for r in range(200)
        for j, c in enumerate(categories)
    ]
    data = as_file(LABELS_HEADER, rows)
    del rows
    fileio.parse_label_matrix(data)
    tracemalloc.start()
    try:
        fileio.parse_label_matrix(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 100_000 <= 113
