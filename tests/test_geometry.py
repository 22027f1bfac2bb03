import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from detpipe import (
    BinaryMask,
    Box,
    ValidationError,
    box_area,
    box_iou,
    mask_area,
    mask_decode,
    mask_encode,
    mask_iou,
)

from oracles import iou_ref

finite_coords = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=64
)


@st.composite
def boxes(draw):
    x0, x1 = sorted((draw(finite_coords), draw(finite_coords)))
    y0, y1 = sorted((draw(finite_coords), draw(finite_coords)))
    return Box(x0, y0, x1, y1)


bit_grids = arrays(
    dtype=np.uint8,
    shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    elements=st.integers(0, 1),
)


class TestBox:
    def test_identity_iou(self):
        b = Box(0, 0, 10, 10)
        assert box_iou(b, b) == 1.0

    def test_disjoint_iou(self):
        assert box_iou(Box(0, 0, 1, 1), Box(5, 5, 6, 6)) == 0.0

    def test_partial_overlap_iou(self):
        # inter = 1, union = 4 + 4 - 1 = 7
        assert box_iou(Box(0, 0, 2, 2), Box(1, 1, 3, 3)) == pytest.approx(1 / 7)

    def test_degenerate_union_is_zero(self):
        point = Box(3, 3, 3, 3)
        assert box_iou(point, point) == 0.0

    def test_area(self):
        assert box_area(Box(0, 0, 0, 0)) == 0.0
        assert box_area(Box(0, 0, 40, 80)) == 3200.0
        assert box_area(Box(1.5, 2.5, 4.0, 6.0)) == pytest.approx(8.75)

    def test_inverted_corners_rejected(self):
        with pytest.raises(ValidationError):
            Box(1, 0, 0, 1)
        with pytest.raises(ValidationError):
            Box(0, 1, 1, 0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            Box(0, 0, float("nan"), 1)
        with pytest.raises(ValidationError):
            Box(0, 0, float("inf"), 1)

    @given(a=boxes(), b=boxes())
    def test_iou_symmetric_and_bounded(self, a, b):
        forward = box_iou(a, b)
        assert forward == box_iou(b, a)
        assert 0.0 <= forward <= 1.0

    @given(a=boxes())
    def test_self_iou_is_one_for_positive_area(self, a):
        if box_area(a) > 0:
            assert box_iou(a, a) == 1.0

    @given(a=boxes(), b=boxes())
    def test_iou_matches_reference(self, a, b):
        ref = iou_ref(
            (a.x_min, a.y_min, a.x_max, a.y_max),
            (b.x_min, b.y_min, b.x_max, b.y_max),
        )
        assert box_iou(a, b) == pytest.approx(ref, abs=1e-12)


class TestBinaryMask:
    def test_all_zero_area(self):
        assert mask_area(BinaryMask(4, 3, (12,))) == 0

    def test_all_one_area(self):
        assert mask_area(BinaryMask(4, 3, (0, 12))) == 12

    def test_mixed_area(self):
        # pixels: 00 111 00000 1
        assert mask_area(BinaryMask(11, 1, (2, 3, 5, 1))) == 4

    def test_runs_must_sum_to_size(self):
        with pytest.raises(ValidationError):
            BinaryMask(4, 3, (11,))

    def test_interior_zero_run_rejected(self):
        with pytest.raises(ValidationError):
            BinaryMask(4, 1, (2, 0, 2))

    def test_negative_run_rejected(self):
        with pytest.raises(ValidationError):
            BinaryMask(4, 1, (-1, 5))

    def test_runs_must_be_integers(self):
        # The rule width and height follow: a fraction or a bool is no length.
        for runs in ([2.5, 2.5], [True, 3], [0, 2, 1.5, 0.5], ["4"], [float("inf")]):
            with pytest.raises(ValidationError, match="mask run must be an integer"):
                BinaryMask(2, 2, runs)

    def test_dimensions_that_int_cannot_convert_rejected(self):
        for width in (float("nan"), float("inf"), None, "x"):
            with pytest.raises(ValidationError, match="mask width must be an integer"):
                BinaryMask(width, 1, (1,))

    def test_decode_single_pixel(self):
        grid = mask_decode(BinaryMask(1, 1, (0, 1)))
        assert grid.tolist() == [[1]]

    def test_encode_hand_case(self):
        assert mask_encode([[0, 1, 1, 0]]).runs == (1, 2, 1)

    def test_encode_rejects_empty(self):
        with pytest.raises(ValidationError):
            mask_encode(np.zeros((0, 4), dtype=np.uint8))

    def test_encode_rejects_non_binary(self):
        with pytest.raises(ValidationError):
            mask_encode([[0, 2]])

    def test_random_round_trips(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            height = int(rng.integers(1, 20))
            width = int(rng.integers(1, 20))
            grid = (rng.uniform(size=(height, width)) < rng.uniform()).astype(np.uint8)
            mask = mask_encode(grid)
            assert np.array_equal(mask_decode(mask), grid)
            assert mask_encode(mask_decode(mask)) == mask

    @given(grid=bit_grids)
    def test_decode_encode_identity(self, grid):
        mask = mask_encode(grid)
        assert np.array_equal(mask_decode(mask), grid)
        assert mask_encode(mask_decode(mask)) == mask

    @given(grid=bit_grids)
    def test_area_is_popcount(self, grid):
        assert mask_area(mask_encode(grid)) == int(grid.sum())

    @given(grid=bit_grids)
    def test_area_bounded_by_size(self, grid):
        mask = mask_encode(grid)
        assert mask_area(mask) <= mask.width * mask.height


class TestMaskIou:
    def test_identical(self):
        mask = mask_encode([[0, 1], [1, 1]])
        assert mask_iou(mask, mask) == 1.0

    def test_disjoint(self):
        a = mask_encode([[1, 0, 0, 0]])
        b = mask_encode([[0, 0, 0, 1]])
        assert mask_iou(a, b) == 0.0

    def test_partial(self):
        a = mask_encode([[1, 1, 0]])
        b = mask_encode([[0, 1, 1]])
        assert mask_iou(a, b) == pytest.approx(1 / 3)

    def test_both_empty(self):
        empty = BinaryMask(2, 2, (4,))
        assert mask_iou(empty, empty) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            mask_iou(BinaryMask(2, 2, (4,)), BinaryMask(4, 1, (4,)))
