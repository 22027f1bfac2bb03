import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from detpipe import (
    BinaryMask,
    Box,
    CategoryStats,
    EmbeddingTable,
    GroundTruthInstance,
    Hierarchy,
    ParseError,
    Prediction,
    Roi,
    RoiPool,
    ValidationError,
    VerificationTable,
    rarity_ranking,
)
from detpipe import fileio
from detpipe.experts import CategoryGroup
from detpipe.federated import LabelMatrix

from timing import size_ratio

GOLDEN_ROW_FILE = (
    b"image_id,category_id,score,x_min,y_min,x_max,y_max,mask_width,mask_height,mask_rle\n"
    b"im1,/m/01g317,0.9,10.0,20.0,110.0,220.0,,,\n"
)


def box(x0=0.0, y0=0.0, x1=10.0, y1=10.0):
    return Box(x0, y0, x1, y1)


class TestPredictions:
    def test_header_only_is_empty(self):
        header = fileio.PREDICTIONS_HEADER + "\n"
        assert fileio.parse_predictions(header) == []

    def test_golden_box_only_row(self):
        records = fileio.parse_predictions(GOLDEN_ROW_FILE)
        assert records == [
            Prediction("im1", "/m/01g317", 0.9, Box(10, 20, 110, 220))
        ]
        assert records[0].mask is None

    def test_all_one_mask_row(self):
        data = (
            fileio.PREDICTIONS_HEADER + "\n"
            "im1,c1,0.5,0.0,0.0,4.0,3.0,4,3,0 12\n"
        )
        [record] = fileio.parse_predictions(data)
        assert record.mask == BinaryMask(4, 3, (0, 12))

    def test_round_trip_is_identity_on_records(self):
        records = [
            Prediction("im1", "c1", 0.9, box()),
            Prediction("im2", "c2", 0.25, box(1.5, 2.5, 4.0, 6.0), BinaryMask(2, 2, (1, 3))),
        ]
        assert fileio.parse_predictions(fileio.write_predictions(records)) == records

    def test_write_parse_write_byte_identity(self):
        records = [
            Prediction("im1", "c1", 0.123456789, box(0.1, 0.2, 10.3, 10.7)),
            Prediction("im1", "c1", 1.0, box(), BinaryMask(3, 1, (1, 2))),
        ]
        data = fileio.write_predictions(records)
        assert fileio.write_predictions(fileio.parse_predictions(data)) == data

    def test_field_count_error_carries_line(self):
        data = fileio.PREDICTIONS_HEADER + "\nim1,c1,0.9\n"
        with pytest.raises(ParseError) as info:
            fileio.parse_predictions(data)
        assert info.value.line == 2
        assert "10 fields" in str(info.value)

    def test_score_out_of_range(self):
        data = fileio.PREDICTIONS_HEADER + "\nim1,c1,1.5,0.0,0.0,1.0,1.0,,,\n"
        with pytest.raises(ValidationError):
            fileio.parse_predictions(data)

    def test_bad_runs_sum(self):
        data = fileio.PREDICTIONS_HEADER + "\nim1,c1,0.5,0.0,0.0,1.0,1.0,4,3,0 11\n"
        with pytest.raises(ParseError) as info:
            fileio.parse_predictions(data)
        assert info.value.line == 2

    def test_partial_mask_fields(self):
        data = fileio.PREDICTIONS_HEADER + "\nim1,c1,0.5,0.0,0.0,1.0,1.0,4,,\n"
        with pytest.raises(ParseError):
            fileio.parse_predictions(data)

    def test_bad_header(self):
        with pytest.raises(ParseError) as info:
            fileio.parse_predictions("nope\n")
        assert info.value.line == 1

    def test_bad_utf8_byte_reports_its_line(self):
        data = (
            fileio.PREDICTIONS_HEADER.encode() + b"\n"
            b"im1,c1,0.5,0.0,0.0,4.0,3.0,,,\n"
            b"im\xff,c1,0.5,0.0,0.0,4.0,3.0,,,\n"
        )
        with pytest.raises(ParseError) as info:
            fileio.parse_predictions(data)
        assert info.value.line == 3
        assert "at byte 3 of the line: 0xff" in info.value.reason

    def test_carriage_return_rejected(self):
        with pytest.raises(ParseError):
            fileio.parse_predictions(fileio.PREDICTIONS_HEADER + "\r\n")

    def test_carriage_return_reports_its_line(self):
        data = (
            fileio.PREDICTIONS_HEADER.encode() + b"\n"
            b"im1,c1,0.5,0.0,0.0,4.0,3.0,,,\n"
            b"im2,c1,0.5,0.0,0.0,4.0,3.0,,,\r\n"
            b"im3,c1,0.5,0.0,0.0,4.0,3.0,,,\n"
        )
        with pytest.raises(ParseError) as info:
            fileio.parse_predictions(data)
        assert info.value.line == 3
        assert info.value.reason == "carriage returns are not allowed; files are LF-terminated"

    def test_bad_utf8_byte_is_reported_before_an_earlier_carriage_return(self):
        # The decode runs first, so a bad byte on line 4 wins over a
        # carriage return on line 2.
        data = (
            fileio.PREDICTIONS_HEADER.encode() + b"\n"
            b"im1,c1,0.5,0.0,0.0,4.0,3.0,,,\r\n"
            b"im2,c1,0.5,0.0,0.0,4.0,3.0,,,\n"
            b"im\xff,c1,0.5,0.0,0.0,4.0,3.0,,,\n"
        )
        with pytest.raises(ParseError) as info:
            fileio.parse_predictions(data)
        assert info.value.line == 4
        assert "not valid UTF-8" in info.value.reason


class TestSerializedSize:
    def test_empty_is_header(self):
        assert fileio.serialized_size([]) == len(fileio.PREDICTIONS_HEADER) + 1
        assert fileio.empty_predictions_size() == 83

    def test_equals_write_length(self):
        records = [
            Prediction("im1", "c1", 0.9, box()),
            Prediction("im2", "c2", 0.8, box(), BinaryMask(4, 3, (0, 12))),
        ]
        assert fileio.serialized_size(records) == len(fileio.write_predictions(records))

    def test_hand_counted_golden_row(self):
        [record] = fileio.parse_predictions(GOLDEN_ROW_FILE)
        assert fileio.write_predictions([record]) == GOLDEN_ROW_FILE
        # header line is 83 bytes, the row is 43 including its newline
        assert fileio.serialized_size([record]) == 126
        assert len(GOLDEN_ROW_FILE) == 126

    def test_additive_up_to_header(self):
        a = [Prediction("im1", "c1", 0.9, box())]
        b = [Prediction("im2", "c2", 0.8, box(), BinaryMask(2, 1, (1, 1)))]
        header = fileio.empty_predictions_size()
        assert fileio.serialized_size(a + b) == (
            fileio.serialized_size(a) + fileio.serialized_size(b) - header
        )


class TestGroundTruth:
    def test_round_trip(self):
        records = [
            GroundTruthInstance("im1", "c1", box()),
            GroundTruthInstance("im1", "c2", box(), BinaryMask(2, 2, (0, 4))),
        ]
        data = fileio.write_ground_truth(records)
        assert fileio.parse_ground_truth(data).rows() == records
        assert fileio.write_ground_truth(fileio.parse_ground_truth(data)) == data


class TestVerification:
    def test_round_trip(self):
        table = VerificationTable({("im1", "c1"): 1, ("im2", "c1"): -1})
        data = fileio.write_verification(table)
        assert fileio.parse_verification(data) == table

    def test_conflicting_sign_is_error(self):
        data = fileio.VERIFICATION_HEADER + "\nim1,c1,1\nim1,c1,-1\n"
        with pytest.raises(ParseError) as info:
            fileio.parse_verification(data)
        assert info.value.line == 3

    def test_duplicate_same_sign_allowed(self):
        data = fileio.VERIFICATION_HEADER + "\nim1,c1,1\nim1,c1,1\n"
        table = fileio.parse_verification(data)
        assert table.status("im1", "c1") == 1

    def test_bad_value(self):
        data = fileio.VERIFICATION_HEADER + "\nim1,c1,2\n"
        with pytest.raises(ParseError):
            fileio.parse_verification(data)


class TestHierarchy:
    def test_round_trip(self):
        h = Hierarchy([("cat", "animal"), ("dog", "animal")])
        assert fileio.parse_hierarchy(fileio.write_hierarchy(h)) == h

    def test_two_cycle_names_member(self):
        data = '[{"child": "c1", "parent": "c2"}, {"child": "c2", "parent": "c1"}]'
        with pytest.raises(ValidationError) as info:
            fileio.parse_hierarchy(data)
        assert "c1" in str(info.value)

    def test_bad_json(self):
        with pytest.raises(ParseError):
            fileio.parse_hierarchy(b"not json")

    def test_unknown_category_with_list(self):
        data = '[{"child": "c1", "parent": "c2"}]'
        with pytest.raises(ValidationError):
            fileio.parse_hierarchy(data, categories=["c1"])


class TestCategoryStats:
    def test_rare_category_ranks_first(self):
        data = fileio.STATS_HEADER + "\nperson,807000\npressure_cooker,13\n"
        stats = fileio.parse_category_stats(data)
        assert rarity_ranking(stats) == ["pressure_cooker", "person"]

    def test_round_trip(self):
        stats = CategoryStats({"a": 5, "b": 0})
        assert fileio.parse_category_stats(fileio.write_category_stats(stats)) == stats

    def test_duplicate_category(self):
        data = fileio.STATS_HEADER + "\na,1\na,1\n"
        with pytest.raises(ParseError):
            fileio.parse_category_stats(data)

    def test_negative_count(self):
        data = fileio.STATS_HEADER + "\na,-1\n"
        with pytest.raises(ParseError):
            fileio.parse_category_stats(data)


class TestRoiPool:
    def test_round_trip(self):
        pool = RoiPool(
            {
                "im1": (Roi(box()), Roi(box(1, 1, 2, 2), objectness=0.75)),
                "im2": (Roi(box(5, 5, 6, 6)),),
            }
        )
        data = fileio.write_roi_pool(pool)
        assert fileio.parse_roi_pool(data) == pool

    def test_pool_limit_enforced(self):
        rows = "\n".join(f"im1,0.0,0.0,1.0,1.0," for _ in range(3))
        data = fileio.ROI_POOL_HEADER + "\n" + rows + "\n"
        with pytest.raises(ParseError):
            fileio.parse_roi_pool(data, max_per_image=2)

    def test_limit_is_checked_before_any_row(self):
        # A limit below 1 is the caller's error whatever the file holds: an
        # empty file and a one-row file give the same ValidationError.
        for rows in ("", "im1,0.0,0.0,1.0,1.0,\n"):
            with pytest.raises(ValidationError) as raised:
                fileio.parse_roi_pool(fileio.ROI_POOL_HEADER + "\n" + rows, max_per_image=0)
            assert type(raised.value) is ValidationError
            assert str(raised.value) == "max_per_image must be >= 1, got 0"


class TestEmbeddings:
    def test_round_trip(self):
        table = EmbeddingTable({"a": [1.0, 2.0], "b": [0.5, -1.25]})
        parsed = fileio.parse_embeddings(fileio.write_embeddings(table))
        assert sorted(parsed) == ["a", "b"]
        assert np.array_equal(parsed["a"], np.array([1.0, 2.0]))

    def test_dimension_mismatch(self):
        data = "category_id,v0,v1\na,1.0,2.0\nb,1.0\n"
        with pytest.raises(ParseError) as info:
            fileio.parse_embeddings(data)
        assert "dimension" in str(info.value)

    def test_bad_header(self):
        with pytest.raises(ParseError):
            fileio.parse_embeddings("category_id,x0\na,1.0\n")

    def test_empty_category_id_names_its_line(self):
        with pytest.raises(ParseError) as info:
            fileio.parse_embeddings("category_id,v0\na,1.0\n,2.0\n")
        assert str(info.value) == "line 3: category_id must be a non-empty string, got ''"

    def test_non_finite_value_names_its_line(self):
        with pytest.raises(ParseError) as info:
            fileio.parse_embeddings("category_id,v0,v1\na,1.0,2.0\nb,nan,1.0\n")
        assert str(info.value) == "line 3: embedding for 'b' has non-finite entries"


class TestGroupsAndLists:
    def test_group_round_trip(self):
        groups = [
            CategoryGroup(("a", "b"), provenance="file"),
            CategoryGroup(("c",), provenance="file"),
        ]
        data = fileio.write_category_groups(groups)
        parsed = fileio.parse_category_groups(data)
        assert [g.categories for g in parsed] == [("a", "b"), ("c",)]

    def test_group_indices_must_be_contiguous(self):
        data = fileio.GROUPS_HEADER + "\n0,a\n2,b\n"
        with pytest.raises(ParseError):
            fileio.parse_category_groups(data)

    def test_empty_group_member_names_its_line(self):
        data = fileio.GROUPS_HEADER + "\n0,a\n0,\n"
        with pytest.raises(ParseError) as info:
            fileio.parse_category_groups(data)
        assert str(info.value) == "line 3: category_id must be a non-empty string, got ''"

    def test_sampled_indices_round_trip(self):
        samples = {"im1": [3, 0], "im0": [5]}
        data = fileio.write_sampled_indices(samples)
        assert fileio.parse_sampled_indices(data) == {"im0": [5], "im1": [3, 0]}

    def test_empty_sampled_image_id_names_its_line(self):
        data = fileio.SAMPLED_HEADER + "\nim1,0\n,3\n"
        with pytest.raises(ParseError) as info:
            fileio.parse_sampled_indices(data)
        assert str(info.value) == "line 3: image_id must be a non-empty string, got ''"

    def test_category_list_round_trip(self):
        categories = ["c2", "c1", "c3"]
        data = fileio.write_category_list(categories)
        assert fileio.parse_category_list(data) == categories

    def test_image_list_round_trip(self):
        images = ["im2", "im1"]
        assert fileio.parse_image_list(fileio.write_image_list(images)) == images

    @pytest.mark.parametrize(
        "parse, header, noun",
        [
            (fileio.parse_image_list, fileio.IMAGE_LIST_HEADER, "image"),
            (fileio.parse_category_list, fileio.CATEGORY_LIST_HEADER, "category"),
        ],
    )
    def test_duplicate_id_rejected(self, parse, header, noun):
        with pytest.raises(ParseError) as exc:
            parse(f"{header}\na\nb\na\n")
        assert exc.value.line == 4
        assert exc.value.reason == f"duplicate {noun} 'a'"

    def test_image_list_parse_time_is_linear(self):
        small, large = (
            fileio.write_image_list([f"im{i:07d}" for i in range(n)]) for n in (20_000, 80_000)
        )
        # Four times the ids: about 4x for a linear parser, 16x for a quadratic one.
        assert size_ratio(fileio.parse_image_list, small, large) <= 8


class TestMatrices:
    def test_label_matrix_round_trip(self):
        matrix = LabelMatrix(
            np.array([[1, -1, 0], [-1, -1, 0]], dtype=np.int8), ("a", "b", "c")
        )
        data = fileio.write_label_matrix(matrix)
        parsed = fileio.parse_label_matrix(data)
        assert parsed.categories == matrix.categories
        assert np.array_equal(parsed.values, matrix.values)

    def test_logit_matrix_round_trip(self):
        logits = np.array([[0.5, -2.25], [50.0, -50.0]])
        data = fileio.write_logit_matrix(logits, ("a", "b"))
        parsed, categories = fileio.parse_logit_matrix(data)
        assert categories == ("a", "b")
        assert np.array_equal(parsed, logits)

    def test_label_matrix_shape_errors(self):
        data = fileio.LABELS_HEADER + "\n0,a,1\n0,b,0\n1,a,0\n"
        with pytest.raises(ParseError):
            fileio.parse_label_matrix(data)

    def test_label_value_validated(self):
        data = fileio.LABELS_HEADER + "\n0,a,2\n"
        with pytest.raises(ParseError):
            fileio.parse_label_matrix(data)

    def test_second_positive_in_a_row_names_its_line(self):
        data = fileio.LABELS_HEADER + "\n0,a,0\n0,b,0\n1,a,1\n1,b,1\n"
        with pytest.raises(ParseError) as info:
            fileio.parse_label_matrix(data)
        assert str(info.value) == "line 5: label matrix rows may contain at most one +1"

    def test_truncated_matrix_names_its_last_line(self):
        for parse, header in (
            (fileio.parse_label_matrix, fileio.LABELS_HEADER),
            (fileio.parse_logit_matrix, fileio.LOGITS_HEADER),
        ):
            with pytest.raises(ParseError) as info:
                parse(header + "\n0,a,0\n0,b,0\n1,a,1\n")
            assert str(info.value) == "line 4: matrix ends mid-row"


scores = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=64)
ids = st.text(
    alphabet=st.characters(codec="ascii", exclude_characters=",\n\r", min_codepoint=33),
    min_size=1,
    max_size=8,
)


@st.composite
def predictions(draw):
    x0, x1 = sorted((draw(scores), draw(scores)))
    y0, y1 = sorted((draw(scores), draw(scores)))
    mask = None
    if draw(st.booleans()):
        width = draw(st.integers(1, 6))
        height = draw(st.integers(1, 6))
        bits = draw(
            st.lists(st.integers(0, 1), min_size=width * height, max_size=width * height)
        )
        from detpipe import mask_encode

        mask = mask_encode(np.array(bits, dtype=np.uint8).reshape(height, width))
    return Prediction(
        image_id=draw(ids),
        category_id=draw(ids),
        score=draw(scores),
        box=Box(x0 * 100, y0 * 100, x1 * 100, y1 * 100),
        mask=mask,
    )


@given(records=st.lists(predictions(), max_size=8))
def test_prediction_round_trip_property(records):
    data = fileio.write_predictions(records)
    assert fileio.parse_predictions(data) == records
    assert fileio.write_predictions(fileio.parse_predictions(data)) == data
    assert fileio.serialized_size(records) == len(data)
