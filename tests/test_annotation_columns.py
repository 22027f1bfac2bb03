"""Ground truth and verification parsed straight to coded columns, checked
against the row-by-row parse: the same values, the same ParseError line and
message, and vocabularies and codes equal to interning the reference rows'
ids.  Small chunk sizes put row-by-row chunks among column-parsed ones.
Also: that a parse sorts each id vocabulary once, what a parse holds in
memory, the calls the benchmark's traced run makes into the CLI's modules,
and the row-wise consumers given parsed files."""

import ast
import gc
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detpipe import (
    GroundTruthInstance,
    ParseError,
    Prediction,
    ValidationError,
    VerificationTable,
    cli,
    fileio,
)
from detpipe.evaluation import TRUE_POSITIVE, match_category
from detpipe.federated import assign_rois, build_label_matrix, expand_verification
from detpipe.fileio import (
    GROUND_TRUTH_HEADER,
    PREDICTIONS_HEADER,
    ROI_POOL_HEADER,
    VERIFICATION_HEADER,
    _parse_box,
    _parse_float,
    _parse_id,
    _parse_mask_fields,
    _split,
)
from detpipe.records import POSITIVE, _Codes

from oracles import csv_lines_ref

SRC = Path(__file__).resolve().parent.parent / "src" / "detpipe"
FIXTURE = Path(__file__).parent / "fixtures" / "expert_pipeline"

# -- references ------------------------------------------------------------------


def intern_ref(ids):
    """Interning as it was done per table: the sorted distinct ids and each
    id's index among them."""
    vocabulary = tuple(sorted(set(ids)))
    code = {value: index for index, value in enumerate(vocabulary)}
    return vocabulary, np.array([code[value] for value in ids], dtype=np.int32).reshape(-1)


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
    return entries


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


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValidationError as exc:
        return type(exc).__name__, str(exc)


def compared(parse, reference, data, chunk_lines):
    """Both outcomes, once their error types and messages are checked."""
    expected = outcome(reference, data)
    with mock.patch.object(fileio, "_CHUNK_LINES", chunk_lines):
        actual = outcome(parse, data)
    assert actual[0] == expected[0], (actual, expected)
    if expected[0] != "ok":
        assert actual[1] == expected[1]
    return actual[1], expected[1]


def assert_codes(table, image_ids, category_ids):
    for vocabulary, codes, ids in (
        (table.image_ids, table.image_codes, image_ids),
        (table.category_ids, table.category_codes, category_ids),
    ):
        expected_vocabulary, expected_codes = intern_ref(ids)
        assert vocabulary == expected_vocabulary
        assert codes.dtype == np.int32
        assert codes.tolist() == expected_codes.tolist()


# -- inputs ----------------------------------------------------------------------

IDS = ["a", "b", "é", "a b"]
NUMBERS = ["0", "1", "2.5", "-0.0", "1e308", "1_0", " 3", "nan", "inf", "x", ""]


@st.composite
def damaged(draw, header, rows):
    """A file of the rows, perhaps with a carriage return or a byte that is
    not UTF-8 put into one of them."""
    data = (header + "\n" + "".join(row + "\n" for row in rows)).encode()
    damage = draw(st.sampled_from([None] * 8 + [b"\r", b"\xff", b"\xc3"]))
    if damage is not None:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + damage + data[at:]
    return data


@st.composite
def ground_truth_files(draw):
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        ids = [draw(st.sampled_from(IDS + [""] * draw(st.sampled_from([0, 0, 0, 1])))) for _ in "ic"]
        if draw(st.integers(0, 3)):
            x, y = (sorted(draw(st.lists(st.sampled_from(NUMBERS[:5]), min_size=2, max_size=2)), key=float) for _ in "xy")
            box = [x[0], y[0], x[1], y[1]]
        else:
            box = [draw(st.sampled_from(NUMBERS)) for _ in range(4)]
        mask = draw(st.sampled_from([",,"] * 6 + ["2,2,1 3", "2,2,0 4", "1,1,0 1", "2,,", "2,2,1 x", "2,2,5"]))
        row = ",".join([*ids, *box, mask])
        defect = draw(st.sampled_from([None] * 10 + ["short", "empty"]))
        rows.append(row.rsplit(",", 1)[0] if defect == "short" else "" if defect == "empty" else row)
    return draw(damaged(GROUND_TRUTH_HEADER, rows))


@st.composite
def verification_files(draw):
    # Three images and two categories: pairs repeat often, with the same
    # sign and with the other, within a chunk and across chunks.
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        image_id = draw(st.sampled_from(IDS[:3] + [""] * draw(st.sampled_from([0, 0, 0, 1]))))
        category_id = draw(st.sampled_from(["x", "y"] + [""] * draw(st.sampled_from([0, 0, 0, 1]))))
        sign = draw(st.sampled_from(["1", "-1"] * 6 + ["0", "+1", " 1", ""]))
        defect = draw(st.sampled_from([None] * 10 + ["short", "long", "empty"]))
        row = f"{image_id},{category_id}" if defect == "short" else f"{image_id},{category_id},{sign}"
        rows.append(row + ",1" if defect == "long" else "" if defect == "empty" else row)
    return draw(damaged(VERIFICATION_HEADER, rows))


@st.composite
def prediction_files(draw):
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        ids = [draw(st.sampled_from(IDS)) for _ in "ic"]
        score = draw(st.sampled_from(["0.5", "1", "0", "1.5", "x"]))
        mask = draw(st.sampled_from([",,"] * 4 + ["2,2,1 3", "2,2,5"]))
        rows.append(",".join([*ids, score, "0", "0", "1", "1", mask]))
    return draw(damaged(PREDICTIONS_HEADER, rows))


# -- the column parsers against the row-by-row parse ---------------------------------


class TestGroundTruth:
    @given(ground_truth_files(), st.integers(1, 4))
    @settings(max_examples=400, deadline=None)
    @example(fileio.GROUND_TRUTH_HEADER.encode() + b"\na,c,0,0,1,1,,,\na,c,0,0,1,1,2,2,0 4\nb,c,0,0,1,1,,,\n", 1)
    @example(fileio.GROUND_TRUTH_HEADER.encode() + b"\na,c,0,0,1,1,,,\n,c,0,0,1,1,,,\n", 1)
    @example(fileio.GROUND_TRUTH_HEADER.encode() + b"\na,c,0,0,1,1,,,\na,c,0,x,1,1,,,\n", 2)
    @example(fileio.GROUND_TRUTH_HEADER.encode() + b"\na,c,0,0,1,1,,,\r\n", 1)
    @example(fileio.GROUND_TRUTH_HEADER.encode() + b"\na,c,0,0,1,1,,,\nb\xff,c,0,0,1,1,,,\n", 1)
    def test_same_rows_errors_and_codes(self, data, chunk_lines):
        actual, expected = compared(fileio.parse_ground_truth, parse_ground_truth_ref, data, chunk_lines)
        if isinstance(expected, list):
            rows = actual.rows()
            assert rows == expected
            assert list(map(repr, rows)) == list(map(repr, expected))
            assert actual.boxes.dtype == np.float64 and actual.boxes.shape == (len(expected), 4)
            assert_codes(actual, [g.image_id for g in expected], [g.category_id for g in expected])


class TestVerification:
    @given(verification_files(), st.integers(1, 4))
    @settings(max_examples=400, deadline=None)
    @example(VERIFICATION_HEADER.encode() + b"\na,x,1\na,x,1\n", 1)
    @example(VERIFICATION_HEADER.encode() + b"\na,x,1\na,x,1\n", 2)
    @example(VERIFICATION_HEADER.encode() + b"\na,x,1\nb,x,-1\na,x,-1\n", 3)
    @example(VERIFICATION_HEADER.encode() + b"\na,x,1\nb,x,-1\na,x,-1\n", 1)
    @example(VERIFICATION_HEADER.encode() + b"\na,x,1\na,x,-1\nb,y,0\n", 2)
    @example(VERIFICATION_HEADER.encode() + b"\nb,y,0\na,x,1\na,x,-1\n", 1)
    @example(VERIFICATION_HEADER.encode() + b"\na,x,1\r\n", 1)
    @example(VERIFICATION_HEADER.encode() + b"\na,x,1\n\xe9,x,1\n", 1)
    def test_same_entries_errors_and_codes(self, data, chunk_lines):
        actual, expected = compared(fileio.parse_verification, parse_verification_ref, data, chunk_lines)
        if isinstance(expected, dict):
            assert list(actual.entries.items()) == list(expected.items())
            assert actual.signs.dtype == np.int8
            assert_codes(actual, [i for i, _ in expected], [c for _, c in expected])


class TestPredictions:
    @given(prediction_files(), st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_same_rows_errors_and_codes(self, data, chunk_lines):
        actual, expected = compared(fileio.parse_prediction_table, parse_predictions_ref, data, chunk_lines)
        if isinstance(expected, list):
            assert actual.rows() == expected
            assert_codes(actual, [p.image_id for p in expected], [p.category_id for p in expected])


# -- one vocabulary per parse ------------------------------------------------------

# Two-line chunks.  In the predictions and ground-truth files some chunks
# hold a masked row; the verification file repeats a pair across chunks.
SORTED_ONCE = [
    (
        fileio.parse_prediction_table,
        PREDICTIONS_HEADER,
        ["b,y,0.5,0,0,1,1,,,", "a,x,0.5,0,0,1,1,,,", "c,x,0.5,0,0,1,1,2,2,1 3", "a,z,0.5,0,0,1,1,,,", "b,x,0.5,0,0,1,1,,,"],
    ),
    (
        fileio.parse_ground_truth,
        GROUND_TRUTH_HEADER,
        ["b,y,0,0,1,1,,,", "a,x,0,0,1,1,2,2,1 3", "c,x,0,0,1,1,,,", "a,z,0,0,1,1,,,", "d,x,0,0,1,1,2,2,0 4"],
    ),
    (fileio.parse_verification, VERIFICATION_HEADER, ["b,y,1", "a,x,-1", "c,x,1", "b,y,1", "a,z,-1"]),
]


@pytest.mark.parametrize("parse, header, rows", SORTED_ONCE)
def test_a_parse_sorts_each_id_column_once(parse, header, rows):
    finished = []
    real = _Codes.finish

    def finish(codes):
        finished.append(len(codes.parts))
        return real(codes)

    data = (header + "\n" + "".join(row + "\n" for row in rows)).encode()
    with mock.patch.object(_Codes, "finish", finish), mock.patch.object(fileio, "_CHUNK_LINES", 2):
        table = parse(data)
    # One sort for the image ids and one for the category ids, each over
    # the codes of all three chunks.
    assert finished == [3, 3]
    assert table.image_ids == tuple(sorted({row.split(",")[0] for row in rows}))
    assert table.category_ids == tuple(sorted({row.split(",")[1] for row in rows}))


# -- what a parse holds -------------------------------------------------------------


def held_per_row(parse, data, rows, count=len):
    """Bytes that the parse's result holds, per row, from tracemalloc; count
    gives the result's rows."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = parse(data)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert count(result) == rows
    return held / rows


def test_ground_truth_holds_at_most_80_bytes_per_row():
    # box-submission's shape: four boxes per image over 500 categories.  The
    # records parse held 342 B/row here (Python 3.11, numpy 2.4).
    rows = [
        f"img{i // 4:05d},p{(7 * i) % 500:03d},{i % 900}.5,{i % 700}.0,{i % 900 + 80}.5,{i % 700 + 60}.25,,,"
        for i in range(24_000)
    ]
    data = (GROUND_TRUTH_HEADER + "\n" + "".join(row + "\n" for row in rows)).encode()
    assert held_per_row(fileio.parse_ground_truth, data, len(rows)) <= 80


def test_verification_holds_at_most_24_bytes_per_entry():
    # Ten entries per image over 500 categories.  The dict parse held
    # 205 B/entry here (Python 3.11, numpy 2.4).
    rows = [f"img{i // 10:05d},p{(13 * i) % 500:03d},{1 if i % 3 else -1}" for i in range(60_000)]
    data = (VERIFICATION_HEADER + "\n" + "".join(row + "\n" for row in rows)).encode()
    assert held_per_row(fileio.parse_verification, data, len(rows)) <= 24


def test_roi_pool_holds_at_most_80_bytes_per_row():
    # expert-training's shape: 50 images of 160 RoIs, with objectness.  The
    # records parse held 241 B/row here (Python 3.11, numpy 2.4).
    rows = [
        f"img{i // 160:05d},{i % 300}.5,{i % 200}.0,{i % 300 + 40}.5,{i % 200 + 30}.0,0.{i % 997:03d}"
        for i in range(8000)
    ]
    data = (ROI_POOL_HEADER + "\n" + "".join(row + "\n" for row in rows)).encode()

    def rois(pool):
        return sum(map(len, pool.images.values()))

    assert held_per_row(fileio.parse_roi_pool, data, len(rows), rois) <= 80


# -- the benchmark's traced run -------------------------------------------------------


def test_cli_reaches_fileio_only_through_public_names():
    # The traced run replaces cli.fileio with a namespace of fileio's public
    # functions only, so `fileio.<name>` in cli.py must be one of those.
    tree = ast.parse((SRC / "cli.py").read_text())
    names = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "fileio"
    }
    assert names
    assert all(not name.startswith("_") and callable(getattr(fileio, name)) for name in names), names
    assert {"parse_ground_truth", "parse_verification", "parse_prediction_table"} <= names
    assert cli.evaluate.__module__ == "detpipe.evaluation" and cli.evaluate.__name__ == "evaluate"


def test_expanding_a_parsed_verification_file_gives_a_verification_table():
    # The traced run calls expand_verification(parse_verification(data),
    # hierarchy) and takes len() of the argument and of the result.
    data = (FIXTURE / "verification.csv").read_bytes()
    hierarchy = fileio.parse_hierarchy((FIXTURE / "hierarchy.json").read_bytes())
    pairs = fileio.parse_verification(data)
    expanded = expand_verification(pairs, hierarchy)
    expected = expand_verification(VerificationTable(parse_verification_ref(data)), hierarchy)
    assert type(expanded) is VerificationTable
    assert list(expanded.entries.items()) == list(expected.entries.items())
    assert len(pairs) == len(parse_verification_ref(data))
    assert len(expanded) == len(expected) > len(pairs)
    assert all(
        expanded.status(g.image_id, g.category_id) == POSITIVE
        for g in fileio.parse_ground_truth((FIXTURE / "ground_truth.csv").read_bytes())
    )


# -- the row-wise consumers ------------------------------------------------------------


def test_label_matrix_takes_a_parsed_ground_truth_file_and_verification_file():
    gts = fileio.parse_ground_truth((FIXTURE / "ground_truth.csv").read_bytes())
    pairs = fileio.parse_verification((FIXTURE / "verification.csv").read_bytes())
    pool = fileio.parse_roi_pool((FIXTURE / "rois.csv").read_bytes())
    categories = fileio.parse_category_list((FIXTURE / "categories.csv").read_bytes())
    image_gts = gts.take(np.flatnonzero(gts.image_codes == gts.image_ids.index("im0")))
    assignment = assign_rois([roi.box for roi in pool.images["im0"]], image_gts, 0.5)
    assert any(index is not None for index in assignment.gt_indices)
    parsed = build_label_matrix(assignment, image_gts, pairs, "im0", categories)
    rows = build_label_matrix(assignment, image_gts.rows(), VerificationTable(pairs.entries), "im0", categories)
    assert parsed.categories == rows.categories
    assert np.array_equal(parsed.values, rows.values)
    assert (parsed.values == 1).any() and (parsed.values == -1).any()


def test_match_category_takes_a_parsed_ground_truth_file_and_verification_file():
    gts = fileio.parse_ground_truth((FIXTURE / "ground_truth.csv").read_bytes())
    pairs = fileio.parse_verification((FIXTURE / "verification.csv").read_bytes())
    predictions = [
        p
        for p in fileio.parse_predictions((FIXTURE / "expert_0.csv").read_bytes())
        if p.category_id == "cat"
    ]
    cat_gts = gts.take(np.flatnonzero(gts.category_codes == gts.category_ids.index("cat")))
    parsed = match_category(predictions, cat_gts, pairs)
    rows = match_category(predictions, cat_gts.rows(), VerificationTable(pairs.entries))
    assert parsed == rows
    assert TRUE_POSITIVE in parsed.flags
