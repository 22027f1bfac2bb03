"""The columnar predictions table, checked against the per-row code it
replaced.  The references below are the row-at-a-time bodies of
parse_predictions, write_predictions, nms, group_predictions, ensemble,
drop_small_masks, restrict_predictions and trim_to_budget as they were before
the table; the library functions must give the same values, in the same
order, the same bytes and the same ParseError line and message.
ensemble_groups_ref is ensemble's table body from before a box-only group was
taken as its seed row: every group fused, and the table interned again."""

import heapq
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detpipe import (
    Box,
    CategoryGroup,
    GroundTruthInstance,
    Hierarchy,
    ParseError,
    Prediction,
    PredictionGroup,
    TrimReport,
    ValidationError,
    box_iou,
    drop_small_masks,
    ensemble,
    fileio,
    fuse_group,
    group_predictions,
    mask_area,
    mask_encode,
    nms,
    restrict_predictions,
    trim_to_budget,
)
from detpipe.evaluation import evaluate
from detpipe.fileio import (
    PREDICTIONS_HEADER,
    _mask_fields,
    _parse_box,
    _parse_float,
    _parse_mask_fields,
    _prediction_lines,
    _split,
    _table,
)
from detpipe.geometry import _check_iou_threshold
from detpipe.records import NEGATIVE, POSITIVE, VerificationTable
from detpipe.table import PredictionTable, as_table

from oracles import csv_lines_ref

# -- references ------------------------------------------------------------------


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


def box_fields_ref(box):
    # The record constructors store coordinates as floats, so repr() gives
    # the shortest string that round-trips.
    return f"{box.x_min!r},{box.y_min!r},{box.x_max!r},{box.y_max!r}"


def prediction_row_ref(p):
    return ",".join(
        (p.image_id, p.category_id, repr(p.score), box_fields_ref(p.box), _mask_fields(p.mask))
    )


def write_predictions_ref(predictions):
    return _table(PREDICTIONS_HEADER, map(prediction_row_ref, predictions))


def strata_ref(predictions):
    buckets = {}
    for index, p in enumerate(predictions):
        buckets.setdefault((p.image_id, p.category_id), []).append(index)
    for key in sorted(buckets):
        yield buckets[key]


def nms_ref(predictions, iou_threshold=0.5):
    _check_iou_threshold(iou_threshold)
    kept = []
    for stratum in strata_ref(predictions):
        order = sorted(stratum, key=lambda i: (-predictions[i].score, i))
        kept_boxes = []
        for index in order:
            box = predictions[index].box
            if all(box_iou(box, other) < iou_threshold for other in kept_boxes):
                kept_boxes.append(box)
                kept.append(predictions[index])
    return kept


def group_predictions_ref(predictions, iou_threshold=0.5):
    _check_iou_threshold(iou_threshold)
    groups = []
    for stratum in strata_ref(predictions):
        order = sorted(stratum, key=lambda i: (-predictions[i].score, i))
        claimed = set()
        for seed_idx in order:
            if seed_idx in claimed:
                continue
            seed_box = predictions[seed_idx].box
            member_indices = [seed_idx]
            claimed.add(seed_idx)
            for other in stratum:
                if other in claimed:
                    continue
                if box_iou(predictions[other].box, seed_box) >= iou_threshold:
                    member_indices.append(other)
                    claimed.add(other)
            member_indices.sort()
            groups.append(
                PredictionGroup(
                    members=tuple(predictions[i] for i in member_indices),
                    seed_index=member_indices.index(seed_idx),
                )
            )
    return groups


def ensemble_ref(prediction_sets, iou_threshold=0.5):
    _check_iou_threshold(iou_threshold)
    if not prediction_sets:
        raise ValidationError("ensemble needs at least one prediction set")
    concatenated = []
    for model_predictions in prediction_sets:
        concatenated.extend(nms_ref(model_predictions, iou_threshold))
    groups = group_predictions_ref(concatenated, iou_threshold)
    return [fuse_group(group) for group in groups]


def ensemble_groups_ref(prediction_sets, iou_threshold=0.5):
    _check_iou_threshold(iou_threshold)
    if not prediction_sets:
        raise ValidationError("ensemble needs at least one prediction set")
    concatenated = PredictionTable.concat(
        [nms(as_table(predictions), iou_threshold) for predictions in prediction_sets]
    )
    fused = [fuse_group(group) for group in group_predictions(concatenated, iou_threshold)]
    if all(isinstance(predictions, PredictionTable) for predictions in prediction_sets):
        return PredictionTable.from_rows(fused)
    return fused


def drop_small_masks_ref(predictions, min_area):
    return [p for p in predictions if p.mask is None or mask_area(p.mask) >= min_area]


def restrict_predictions_ref(predictions, group):
    wanted = set(group.categories)
    return [p for p in predictions if p.category_id in wanted]


def trim_to_budget_ref(predictions, max_bytes):
    header_bytes = fileio.empty_predictions_size()
    if max_bytes < header_bytes:
        raise ValidationError(
            f"byte budget {max_bytes} is smaller than the header ({header_bytes} bytes)"
        )
    row_sizes = [len(prediction_row_ref(p).encode("utf-8")) + 1 for p in predictions]
    total = header_bytes + sum(row_sizes)
    removed_flags = [False] * len(predictions)
    removed_counts = {}
    remaining = {}
    removal_order = {}
    for index, p in enumerate(predictions):
        removed_counts.setdefault(p.category_id, 0)
        remaining[p.category_id] = remaining.get(p.category_id, 0) + 1
        removal_order.setdefault(p.category_id, []).append(index)
    for category_id, indices in removal_order.items():
        indices.sort(key=lambda i: (-predictions[i].score, i))
    heap = [(-count, category_id) for category_id, count in remaining.items()]
    heapq.heapify(heap)
    while total > max_bytes:
        while True:
            neg_count, category_id = heap[0]
            if remaining[category_id] == -neg_count:
                break
            heapq.heappop(heap)
        victim = removal_order[category_id].pop()
        removed_flags[victim] = True
        total -= row_sizes[victim]
        remaining[category_id] -= 1
        removed_counts[category_id] += 1
        heapq.heapreplace(heap, (-remaining[category_id], category_id))
    survivors = [p for i, p in enumerate(predictions) if not removed_flags[i]]
    return survivors, TrimReport(removed=removed_counts, final_bytes=total, budget=max_bytes)


def outcome(fn, *args):
    """The call's result, or its error type and message."""
    try:
        return "ok", fn(*args)
    except ValidationError as exc:
        return type(exc).__name__, str(exc)


def same_rows(actual, expected):
    """Equal records with equal repr, so -0.0 and 0.0 differ."""
    assert actual == expected
    assert list(map(repr, actual)) == list(map(repr, expected))
    assert all(type(p.score) is float for p in actual)


# -- strategies --------------------------------------------------------------------

MASK_SIZE = (4, 3)
IDS = ["a", "b", "é", "日本", "img 1"]
# (token, value) pairs that float() accepts; several spell one value.
SCORE_TOKENS = [
    ("0", 0.0), ("1", 1.0), ("0.5", 0.5), (" 0.5", 0.5), ("0.5 ", 0.5),
    ("0.5000000000000001", 0.5000000000000001), ("-0.0", -0.0), ("1e-5", 1e-5),
    ("0.25", 0.25), ("١", 1.0),
]
COORDINATE_TOKENS = [
    ("0", 0.0), ("1", 1.0), ("2.5", 2.5), ("1_0", 10.0), (" 3", 3.0), ("3 ", 3.0),
    ("1e308", 1e308), ("-1e308", -1e308), ("0.1", 0.1), ("-0.0", -0.0),
]
BAD_NUMBER_TOKENS = ["nan", "inf", "-inf", "1e999", "abc", "", "1__0"]


@st.composite
def masks(draw):
    bits = draw(st.lists(st.integers(0, 1), min_size=12, max_size=12))
    return mask_encode(np.array(bits, dtype=np.uint8).reshape(MASK_SIZE[1], MASK_SIZE[0]))


def valid_fields(draw):
    """The eight fields (the mask's three as one) of a row every parser
    accepts, with token spellings float() accepts."""
    corners = st.lists(st.sampled_from(COORDINATE_TOKENS), min_size=2, max_size=2)
    x = sorted(draw(corners), key=lambda token: token[1])
    y = sorted(draw(corners), key=lambda token: token[1])
    return [
        draw(st.sampled_from(IDS)),
        draw(st.sampled_from(IDS)),
        draw(st.sampled_from(SCORE_TOKENS))[0],
        x[0][0],
        y[0][0],
        x[1][0],
        y[1][0],
        _mask_fields(draw(masks())) if draw(st.booleans()) else ",,",
    ]


@st.composite
def valid_rows(draw):
    return ",".join(valid_fields(draw))


@st.composite
def wild_rows(draw):
    """A valid row with one defect, each aimed at one check; a few defects
    (four 1e308 coordinates, equal corners swapped) leave the row valid."""
    fields = valid_fields(draw)
    defect = draw(
        st.sampled_from(
            ["empty", "short", "long", "id", "score", "coordinate", "x", "y", "mask", "huge"]
        )
    )
    if defect == "empty":
        return ""
    if defect == "id":
        fields[draw(st.integers(0, 1))] = ""
    elif defect == "score":
        fields[2] = draw(st.sampled_from(["1.5", "-0.5", "1_0", *BAD_NUMBER_TOKENS]))
    elif defect == "coordinate":
        fields[draw(st.integers(3, 6))] = draw(st.sampled_from(BAD_NUMBER_TOKENS))
    elif defect == "x":
        fields[3], fields[5] = fields[5], fields[3]
    elif defect == "y":
        fields[4], fields[6] = fields[6], fields[4]
    elif defect == "mask":
        fields[7] = draw(
            st.sampled_from(
                ["4,3,1 2", "4,,", ",3,12", ",,12", ",3,", "x,3,12", "4,3,", "4,3,6 x 6"]
                + ["5,3,15", "4,3,0 0 12"]
            )
        )
    elif defect == "huge":
        fields[3:7] = ["1e308"] * 4
    line = ",".join(fields)
    if defect == "short":
        return line.rsplit(",", 1)[0]
    if defect == "long":
        return line + ",0"
    return line


def predictions_file(*rows):
    return (PREDICTIONS_HEADER + "\n" + "".join(row + "\n" for row in rows)).encode()


@st.composite
def prediction_files(draw):
    rows = draw(st.lists(valid_rows(), max_size=12))
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), draw(wild_rows()))
    return predictions_file(*rows)


boxes = st.builds(
    lambda x, w, y, h: Box(x, y, x + w, y + h),
    st.sampled_from([0.0, 1.0, 2.0, 5.0]),
    st.sampled_from([0.0, 1.0, 3.0, 10.0]),
    st.sampled_from([0.0, 1.0, 2.0]),
    st.sampled_from([0.0, 2.0, 4.0]),
) | st.sampled_from(
    # Widths or heights that overflow to inf, so IoUs are nan or inf/inf.
    [Box(-1e308, 0.0, 1e308, 1.0), Box(0.0, -1e308, 1.0, 1e308), Box(1.0, -1e308, 2.0, 1e308)]
)


@st.composite
def prediction_lists(draw, masked=None, max_size=14):
    ids = st.sampled_from(["a", "b", "é"])
    categories = st.sampled_from(["x", "y", "日"])
    scores = st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.5, 0.9, 1.0])
    out = []
    for _ in range(draw(st.integers(0, max_size))):
        is_masked = draw(st.booleans()) if masked is None else masked
        out.append(
            Prediction(
                draw(ids), draw(categories), draw(scores), draw(boxes),
                draw(masks()) if is_masked else None,
            )
        )
    return out


thresholds = st.sampled_from([0.1, 0.5, 0.7, 1.0])


# -- parse and write -----------------------------------------------------------------


class TestParse:
    @given(prediction_files(), st.integers(1, 4))
    @settings(max_examples=250, deadline=None)
    @example(predictions_file("a,a,0.5,1e308,1e308,1e308,1e308,,,"), 1)
    @example(predictions_file("a,a,nan,0,0,1,1,,,"), 1)
    @example(predictions_file("a,a,-0.5,0,0,1,1,,,"), 1)
    @example(predictions_file("a,a,0.5,0,0,1,inf,,,"), 1)
    @example(predictions_file("a,a,0.5,0,1,1,0,,,"), 1)
    # A short row and a long row whose fields, run together, make two valid rows.
    @example(predictions_file("a,a,0.5,0,0,1,1,,", ",a,a,0.5,0,0,1,1,,,"), 2)
    @example(predictions_file("a,a,0.5,0,0,1,1,,,", "a,a,0.5,0,1,1,1,,3,12"), 2)
    def test_matches_reference(self, data, chunk_lines):
        expected = outcome(parse_predictions_ref, data)
        with mock.patch.object(fileio, "_CHUNK_LINES", chunk_lines):
            actual = outcome(fileio.parse_predictions, data)
            table = outcome(fileio.parse_prediction_table, data)
        assert actual[0] == expected[0] == table[0]
        if expected[0] == "ok":
            same_rows(actual[1], expected[1])
            same_rows(table[1].rows(), expected[1])
            assert fileio.write_predictions(table[1]) == write_predictions_ref(expected[1])
        else:
            assert actual[1] == expected[1] == table[1]

    def test_bad_row_at_chunk_boundaries(self):
        # Bad rows first, last and on either side of the boundaries between
        # full-size chunks each report their own line.
        chunk = fileio._CHUNK_LINES
        good = "img,cat,0.5,1,2,3,4,,,"
        n = 2 * chunk + 3
        for index in (0, chunk - 1, chunk, 2 * chunk - 1, 2 * chunk, n - 1):
            for bad in (
                "img,cat,0.5,3,2,1,4,,,",
                "img,cat,0.5,1,2,3,inf,,,",
                "img,,0.5,1,2,3,4,,,",
                "img,cat,1_5,1,2,3,4,,,",
                "",
            ):
                rows = [good] * n
                rows[index] = bad
                data = predictions_file(*rows)
                expected = outcome(parse_predictions_ref, data)
                assert expected[0] == "ParseError"
                assert expected[1].startswith(f"line {index + 2}: ")
                assert outcome(fileio.parse_prediction_table, data) == expected

    def test_accepted_odd_spellings_at_chunk_boundaries(self):
        # float() accepts "1_0" and spaces; such rows parse as before.
        chunk = fileio._CHUNK_LINES
        rows = ["img,cat,0.5,1,2,3,4,,,"] * (chunk + 2)
        rows[chunk - 1] = "img,cat, 0.5,1_0,2,1_1,4,,,"
        rows[chunk] = "img,cat,0.5,1e308,1e308,1e308,1e308,,,"
        data = predictions_file(*rows)
        same_rows(fileio.parse_predictions(data), parse_predictions_ref(data))

    @given(prediction_lists())
    @settings(max_examples=150, deadline=None)
    def test_write_matches_reference(self, predictions):
        expected = write_predictions_ref(predictions)
        assert fileio.write_predictions(predictions) == expected
        assert fileio.serialized_size(predictions) == len(expected)
        table = PredictionTable.from_rows(predictions)
        assert fileio.write_predictions(table) == expected
        same_rows(table.rows(), predictions)

    def test_table_holds_under_100_bytes_per_row(self):
        rows = 200_000
        rng = np.random.default_rng(7)
        corners = np.round(rng.uniform(0, 900, size=(rows, 2)), 1)
        lines = [
            f"img{i % 20_000:05d},c{i % 500:03d},{(i % 997) / 997!r},"
            f"{x!r},{y!r},{x + 50.5!r},{y + 20.25!r},,,"
            for i, (x, y) in enumerate(corners.tolist())
        ]
        data = (PREDICTIONS_HEADER + "\n" + "\n".join(lines) + "\n").encode()
        del lines, corners
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table = fileio.parse_prediction_table(data)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(table) == rows
        assert held / rows <= 100, f"{held / rows:.0f} B/row"


# -- operations ------------------------------------------------------------------------


class TestOperations:
    @given(prediction_lists(), thresholds)
    @settings(max_examples=150, deadline=None)
    @example(
        [
            Prediction("a", "x", 0.9, Box(0.0, -1e308, 1.0, 1e308)),
            Prediction("a", "x", 0.8, Box(1.0, -1e308, 2.0, 1e308)),
            Prediction("a", "x", 0.7, Box(-1e308, 0.0, 1e308, 1.0)),
        ],
        0.5,
    )
    def test_nms(self, predictions, threshold):
        expected = nms_ref(predictions, threshold)
        assert list(map(id, nms(predictions, threshold))) == list(map(id, expected))
        table = nms(PredictionTable.from_rows(predictions), threshold)
        same_rows(table.rows(), expected)

    @given(prediction_lists(), thresholds)
    @settings(max_examples=150, deadline=None)
    # Duplicate boxes with tied scores: one group of all four.
    @example(
        [Prediction("a", "x", score, Box(0.0, 0.0, 2.0, 2.0)) for score in (0.5, 0.9, 0.9, 0.5)],
        0.5,
    )
    def test_group_predictions(self, predictions, threshold):
        expected = group_predictions_ref(predictions, threshold)
        actual = group_predictions(predictions, threshold)
        assert [(list(map(id, g.members)), g.seed_index) for g in actual] == [
            (list(map(id, g.members)), g.seed_index) for g in expected
        ]
        assert group_predictions(PredictionTable.from_rows(predictions), threshold) == expected

    @given(
        st.sampled_from([False, True, None]).flatmap(
            lambda masked: st.lists(prediction_lists(masked), min_size=1, max_size=3)
        ),
        thresholds,
    )
    @settings(max_examples=150, deadline=None)
    def test_ensemble_and_fusion(self, prediction_sets, threshold):
        # Box-only, masked, and mixed sets; a group that mixes masked and
        # box-only predictions fails the same way in both.
        expected = outcome(ensemble_ref, prediction_sets, threshold)
        actual = outcome(ensemble, prediction_sets, threshold)
        tables = [PredictionTable.from_rows(s) for s in prediction_sets]
        fused = outcome(ensemble, tables, threshold)
        assert actual[0] == expected[0] == fused[0]
        if expected[0] == "ok":
            same_rows(actual[1], expected[1])
            assert isinstance(fused[1], PredictionTable)
            assert fileio.write_predictions(fused[1]) == write_predictions_ref(expected[1])
        else:
            assert actual[1] == expected[1] == fused[1]

    def test_ensemble_fuses_each_group_through_fuse_group(self):
        mask = mask_encode(np.ones((MASK_SIZE[1], MASK_SIZE[0]), dtype=np.uint8))
        masked = [Prediction("a", "x", 0.9, Box(0, 0, 2, 2), mask)] * 2
        boxed = [Prediction("b", "x", 0.8, Box(0, 0, 2, 2))] * 2
        for predictions in (masked + boxed, PredictionTable.from_rows(masked + boxed)):
            seen = []

            def counting(group):
                seen.append(group)
                return fuse_group(group)

            with mock.patch("detpipe.ensemble.fuse_group", counting):
                fused = ensemble([predictions], 0.5)
            # Only the masked group is fused; the box-only group is its seed row.
            assert [len(g.members) for g in seen] == [1]
            assert fileio.write_predictions(fused) == write_predictions_ref([masked[0], boxed[0]])

    @given(prediction_lists(), st.sampled_from([0, 1, 4, 6, 13]))
    @settings(max_examples=100, deadline=None)
    def test_drop_small_masks(self, predictions, min_area):
        expected = drop_small_masks_ref(predictions, min_area)
        assert list(map(id, drop_small_masks(predictions, min_area))) == list(map(id, expected))
        table = drop_small_masks(PredictionTable.from_rows(predictions), min_area)
        same_rows(table.rows(), expected)

    @given(prediction_lists(), st.sets(st.sampled_from(["x", "y", "日", "z"]), min_size=1))
    @settings(max_examples=100, deadline=None)
    def test_restrict(self, predictions, categories):
        group = CategoryGroup(tuple(sorted(categories)))
        expected = restrict_predictions_ref(predictions, group)
        assert list(map(id, restrict_predictions(predictions, group))) == list(map(id, expected))
        table = restrict_predictions(PredictionTable.from_rows(predictions), group)
        same_rows(table.rows(), expected)

    @given(prediction_lists(max_size=20), st.data())
    @settings(max_examples=150, deadline=None)
    def test_trim_to_budget(self, predictions, data):
        full = len(write_predictions_ref(predictions))
        budget = data.draw(st.integers(fileio.empty_predictions_size() - 1, full + 10))
        expected = outcome(trim_to_budget_ref, predictions, budget)
        actual = outcome(trim_to_budget, predictions, budget)
        assert actual[0] == expected[0]
        if expected[0] != "ok":
            assert actual == expected
            return
        (survivors, report), (ref_survivors, ref_report) = actual[1], expected[1]
        assert list(map(id, survivors)) == list(map(id, ref_survivors))
        assert report == ref_report
        # A budget that the removals meet exactly removes no further row.
        exact = trim_to_budget(predictions, report.final_bytes)
        assert list(map(id, exact[0])) == list(map(id, ref_survivors))
        table, table_report = trim_to_budget(PredictionTable.from_rows(predictions), budget)
        assert table_report == ref_report
        assert fileio.write_predictions(table) == write_predictions_ref(ref_survivors)
        assert len(fileio.write_predictions(table)) == report.final_bytes

    def test_trim_formats_each_row_once(self):
        predictions = [Prediction("a", f"c{i % 3}", i / 10, Box(0, 0, 1, 1)) for i in range(10)]
        table = PredictionTable.from_rows(predictions)
        calls = []
        original = fileio._mask_fields

        def counting(mask):
            calls.append(mask)
            return original(mask)

        budget = fileio.serialized_size(predictions[:6])
        with mock.patch.object(fileio, "_mask_fields", counting):
            survivors, _ = trim_to_budget(table, budget)
            data = fileio.write_predictions(survivors)
        assert len(calls) == len(predictions)
        assert data == write_predictions_ref(trim_to_budget_ref(predictions, len(data))[0])


# -- a table handed on in a pipeline run --------------------------------------------

# Signed zeros and the smallest subnormal, whose reprs must read back as
# the same floats.
EDGE_SCORES = st.sampled_from([0.0, -0.0, 5e-324, 0.5, 0.5, 1.0])
EDGE_COORDINATES = st.sampled_from([-0.0, 0.0, 5e-324, 1.0, 2.5])


@st.composite
def edge_rows(draw, masked=None):
    x = sorted(draw(st.lists(EDGE_COORDINATES, min_size=2, max_size=2)))
    y = sorted(draw(st.lists(EDGE_COORDINATES, min_size=2, max_size=2)))
    is_masked = draw(st.booleans()) if masked is None else masked
    return Prediction(
        draw(st.sampled_from(["a", "b", "é"])),
        draw(st.sampled_from(["x", "y", "日"])),
        draw(EDGE_SCORES),
        Box(x[0], y[0], x[1], y[1]),
        draw(masks()) if is_masked else None,
    )


@st.composite
def handed_tables(draw, masked=None, max_size=14):
    """(T, P): T = U.take(idx) with its lines set by the formatter, as the
    CLI writes it and hands it on, and P the parse of the bytes written.
    U's rows outside idx leave ids in T's vocabularies that no row of T
    has, and idx is in any order."""
    handed = draw(prediction_lists(masked, max_size)) + draw(
        st.lists(edge_rows(masked), max_size=4)
    )
    dropped = draw(
        st.lists(
            st.builds(
                Prediction,
                st.sampled_from(["a", "gone"]),
                st.sampled_from(["x", "ω"]),
                EDGE_SCORES,
                boxes,
            ),
            max_size=3,
        )
    )
    rows = handed + dropped
    order = draw(st.permutations(range(len(rows))))
    position = {row: index for index, row in enumerate(order)}
    idx = draw(st.permutations([position[row] for row in range(len(handed))]))
    table = PredictionTable.from_rows([rows[row] for row in order]).take(
        np.array(idx, dtype=np.intp)
    )
    table.lines = _prediction_lines(table)
    return table, fileio.parse_prediction_table(fileio.write_predictions(table))


@st.composite
def eval_inputs(draw, masked: bool):
    """Ground truths, a verification table and a hierarchy over the ids of
    handed_tables."""
    images, categories = ["a", "b", "é"], ["x", "y", "日"]
    gts = [
        GroundTruthInstance(
            draw(st.sampled_from(images)),
            draw(st.sampled_from(categories)),
            draw(boxes),
            draw(masks()) if masked else None,
        )
        for _ in range(draw(st.integers(0, 8)))
    ]
    entries = {(g.image_id, g.category_id): POSITIVE for g in gts}
    for image_id in images:
        for category_id in categories:
            sign = draw(st.sampled_from([None, NEGATIVE, POSITIVE]))
            if sign is not None:
                entries.setdefault((image_id, category_id), sign)
    hierarchy = draw(st.sampled_from([Hierarchy(()), Hierarchy([("x", "日")])]))
    return gts, VerificationTable(entries), hierarchy


class TestHandedTable:
    """A pipeline stage gets the table that an earlier stage wrote in place
    of the parse of its file.  Every stage that reads a predictions file
    must give the same bytes, or the same error, for both."""

    @staticmethod
    def same(stage, tables):
        handed, parsed = tables
        assert outcome(stage, handed) == outcome(stage, parsed)

    @given(handed_tables(), thresholds)
    @settings(max_examples=150, deadline=None)
    def test_nms(self, tables, threshold):
        self.same(lambda t: fileio.write_predictions(nms(t, threshold)), tables)

    @given(handed_tables(), st.sets(st.sampled_from(["x", "y", "日", "ω"]), min_size=1))
    @settings(max_examples=100, deadline=None)
    def test_restrict(self, tables, categories):
        group = CategoryGroup(tuple(sorted(categories)))
        self.same(lambda t: fileio.write_predictions(restrict_predictions(t, group)), tables)

    @given(handed_tables(), st.sampled_from([0, 1, 4, 6, 13]))
    @settings(max_examples=100, deadline=None)
    def test_drop_small_masks(self, tables, min_area):
        self.same(lambda t: fileio.write_predictions(drop_small_masks(t, min_area)), tables)

    @given(handed_tables(max_size=20), st.data())
    @settings(max_examples=150, deadline=None)
    def test_trim_to_budget(self, tables, data):
        full = len(fileio.write_predictions(tables[0]))
        budget = data.draw(st.integers(fileio.empty_predictions_size() - 1, full + 10))

        def trim(table):
            survivors, report = trim_to_budget(table, budget)
            return fileio.write_predictions(survivors), fileio.write_trim_report(report)

        self.same(trim, tables)

    @given(handed_tables(), st.lists(prediction_lists(), max_size=2), st.data(), thresholds)
    @settings(max_examples=150, deadline=None)
    def test_ensemble(self, tables, others, data, threshold):
        others = [PredictionTable.from_rows(rows) for rows in others]
        at = data.draw(st.integers(0, len(others)))

        def fuse(table):
            sets = [*others[:at], table, *others[at:]]
            return fileio.write_predictions(ensemble(sets, threshold))

        self.same(fuse, tables)

    @given(
        st.sampled_from(["box", "mask"]).flatmap(
            lambda mode: st.tuples(
                st.just(mode), handed_tables(mode == "mask" or None), eval_inputs(mode == "mask")
            )
        ),
        thresholds,
    )
    @settings(max_examples=200, deadline=None)
    def test_evaluate(self, world, threshold):
        mode, tables, (gts, verification, hierarchy) = world

        def evaluated(table):
            report = evaluate(table, gts, verification, hierarchy, threshold, mode)
            return fileio.write_eval_report(report), report.mean_ap.hex()

        self.same(evaluated, tables)


# -- ensemble groups as index arrays ------------------------------------------------


def bits_mask(bits):
    return mask_encode(np.array(bits, dtype=np.uint8).reshape(MASK_SIZE[1], MASK_SIZE[0]))


def as_inputs(sets):
    return sets, [PredictionTable.from_rows(rows) for rows in sets]


CATEGORIES = ["x", "y", "日"]


@st.composite
def ensemble_inputs(draw):
    """(1-4 prediction sets as rows, the same sets as tables).  Each table's
    vocabularies may also hold ids that none of its rows has.  Every set masks
    the rows of the same categories (none, all or some), so no group mixes
    masked and mask-less rows.  Scores come from a few values, 0.0 and -0.0
    among them, so they tie within and across sets."""
    masked = draw(
        st.sampled_from([set(), set(CATEGORIES)])
        | st.sets(st.sampled_from(CATEGORIES), min_size=1, max_size=2)
    )
    sets, tables = [], []
    for _ in range(draw(st.integers(1, 4))):
        rows = [
            Prediction(
                p.image_id, p.category_id, p.score, p.box,
                draw(masks()) if p.category_id in masked else None,
            )
            for p in draw(prediction_lists(masked=False, max_size=10))
        ]
        unused = draw(
            st.lists(
                st.builds(
                    Prediction, st.sampled_from(["a", "gone"]), st.sampled_from(["x", "ω"]),
                    EDGE_SCORES, boxes,
                ),
                max_size=2,
            )
        )
        sets.append(rows)
        tables.append(PredictionTable.from_rows(rows + unused).take(np.arange(len(rows))))
    return sets, tables


class TestEnsembleSeeds:
    """ensemble takes a box-only group's seed row from the concatenated table
    and fuses only the groups that have a masked member."""

    @given(ensemble_inputs(), thresholds)
    @settings(max_examples=200, deadline=None)
    # Tied zero scores across sets: the masked group's weights are all zero.
    @example(
        as_inputs(
            [
                [Prediction("a", "x", 0.0, Box(0, 0, 2, 2), bits_mask([1] * 6 + [0] * 6))],
                [Prediction("a", "x", -0.0, Box(0, 0, 2, 2), bits_mask([0] * 6 + [1] * 6))],
                [Prediction("a", "x", 0.0, Box(0, 0, 2, 2), bits_mask([1] * 12))],
            ]
        ),
        0.5,
    )
    # A table whose category vocabulary holds an id that no row has.
    @example(
        (
            [[Prediction("a", "x", 0.5, Box(0, 0, 2, 2))]],
            [
                PredictionTable.from_rows(
                    [Prediction("a", "x", 0.5, Box(0, 0, 2, 2)), Prediction("a", "ω", 0.5, Box(0, 0, 1, 1))]
                ).take(np.arange(1))
            ],
        ),
        0.5,
    )
    def test_same_bytes_and_rows_as_fusing_every_group(self, inputs, threshold):
        sets, tables = inputs
        expected = ensemble_groups_ref(tables, threshold)
        actual = ensemble(tables, threshold)
        assert fileio.write_predictions(actual) == fileio.write_predictions(expected)
        # The taken rows' vocabularies are exactly the ids of those rows.
        assert actual.image_ids == tuple(sorted({row.image_id for row in actual.rows()}))
        assert actual.category_ids == tuple(sorted({row.category_id for row in actual.rows()}))
        same_rows(ensemble(sets, threshold), ensemble_groups_ref(sets, threshold))

    def test_first_bad_group_in_seed_order_is_reported(self):
        box = Box(0, 0, 2, 2)
        square = bits_mask([1] * 12)
        wide = mask_encode(np.ones((MASK_SIZE[1], MASK_SIZE[0] + 1), dtype=np.uint8))

        def mixed(image):
            return [Prediction(image, "x", 0.9, box, square)], [Prediction(image, "x", 0.8, box)]

        def mismatched(image):
            return (
                [Prediction(image, "x", 0.9, box, square)],
                [Prediction(image, "x", 0.8, box, wide)],
            )

        # A box-only group, seeded before both bad ones.
        clean = [Prediction("a", "w", 0.7, box)], [Prediction("a", "w", 0.7, box)]
        for first, second, message in (
            (mixed, mismatched, "group mixes masked and mask-less predictions"),
            (mismatched, mixed, "group mask dimensions differ: (4, 3) vs (5, 3)"),
        ):
            # The second group's rows come first in each set: seed order, not
            # row order, decides which error is reported.
            parts = [second("b"), clean, first("a")]
            sets = [[row for part in parts for row in part[k]] for k in (0, 1)]
            for prediction_sets in as_inputs(sets):
                assert (
                    outcome(ensemble, prediction_sets, 0.5)
                    == outcome(ensemble_groups_ref, prediction_sets, 0.5)
                    == ("ValidationError", message)
                )

    def test_box_only_groups_build_no_rows(self):
        box = Box(0, 0, 2, 2)
        boxed = [Prediction(image, "x", score, box) for image in "ab" for score in (0.9, 0.8)]
        masked = [Prediction("c", "x", score, box, bits_mask([1] * 12)) for score in (0.9, 0.8)]
        cases = (
            ([boxed[0::2], boxed[1::2]], {}),
            # Only the masked group's two rows are built, and its fused row.
            (
                [boxed[0::2] + masked[:1], boxed[1::2] + masked[1:]],
                {"row": 2, "Prediction": 3, "fuse_group": 1},
            ),
        )
        for sets, expected_calls in cases:
            tables = [PredictionTable.from_rows(rows) for rows in sets]
            expected = fileio.write_predictions(ensemble_groups_ref(tables, 0.5))
            calls = Counter()

            def counted(name, fn):
                def call(*args, **kwargs):
                    calls[name] += 1
                    return fn(*args, **kwargs)

                return call

            with (
                mock.patch("detpipe.ensemble.fuse_group", counted("fuse_group", fuse_group)),
                mock.patch(
                    "detpipe.ensemble.group_predictions",
                    counted("group_predictions", group_predictions),
                ),
                mock.patch.object(PredictionTable, "row", counted("row", PredictionTable.row)),
                mock.patch.object(PredictionTable, "rows", counted("rows", PredictionTable.rows)),
                mock.patch.object(
                    Prediction, "__init__", counted("Prediction", Prediction.__init__)
                ),
            ):
                fused = ensemble(tables, 0.5)
            assert calls == expected_calls
            assert fileio.write_predictions(fused) == expected
