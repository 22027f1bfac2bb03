"""Mask fusion and mask IoU on run lengths, checked against the raster code
they replaced and against a memory bound at submission resolution."""

import math
import tracemalloc

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from detpipe import (
    BinaryMask,
    Box,
    Prediction,
    PredictionGroup,
    box_iou,
    fuse_group,
    group_predictions,
    mask_area,
    mask_decode,
    mask_encode,
    mask_iou,
)

from generators import random_predictions


def fuse_group_raster(group: PredictionGroup) -> BinaryMask:
    """Reference: the fused mask as computed on full-frame float64 rasters,
    with the soft-mask binarization at 0.5 inlined."""
    seed = group.seed
    size = (seed.mask.width, seed.mask.height)
    accumulator = np.zeros((size[1], size[0]), dtype=np.float64)
    total_weight = 0.0
    for member in group.members:
        weight = member.score * box_iou(member.box, seed.box)
        accumulator += weight * mask_decode(member.mask)
        total_weight += weight
    if total_weight > 0.0:
        soft = accumulator / total_weight
    else:
        soft = sum(
            (mask_decode(m.mask).astype(np.float64) for m in group.members),
            start=np.zeros((size[1], size[0]), dtype=np.float64),
        ) / len(group.members)
    return mask_encode(np.clip(soft, 0.0, 1.0) >= 0.5)


def mask_iou_raster(a: BinaryMask, b: BinaryMask) -> float:
    """Reference: mask IoU on decoded rasters."""
    ga = mask_decode(a).astype(bool)
    gb = mask_decode(b).astype(bool)
    inter = int(np.count_nonzero(ga & gb))
    union = int(np.count_nonzero(ga | gb))
    if union == 0:
        return 0.0
    return inter / union


def group_of(members) -> PredictionGroup:
    """Group (score, box, grid) triples, seeded by the earliest top score."""
    predictions = tuple(
        Prediction("im1", "c1", score, box, mask_encode(grid)) for score, box, grid in members
    )
    top = max(p.score for p in predictions)
    seed_index = next(i for i, p in enumerate(predictions) if p.score == top)
    return PredictionGroup(predictions, seed_index)


def bit_grids(height: int, width: int):
    shape = (height, width)
    return st.one_of(
        st.just(np.zeros(shape, dtype=np.uint8)),
        st.just(np.ones(shape, dtype=np.uint8)),
        arrays(np.uint8, shape, elements=st.integers(0, 1)),
    )


@st.composite
def mask_groups(draw):
    """Groups of 1-5 same-size masked members; scores may all be 0.0 (the
    plain-mean fallback), and small integer boxes often miss the seed's box
    or are degenerate, which gives their member weight 0."""
    height, width = draw(st.integers(1, 5)), draw(st.integers(1, 7))
    scores = st.sampled_from([0.0, 0.3, 0.5, 1.0]) | st.floats(0.0, 1.0)
    if draw(st.booleans()):
        scores = st.just(0.0)
    members = []
    for _ in range(draw(st.integers(1, 5))):
        x0, y0 = draw(st.integers(0, 12)), draw(st.integers(0, 12))
        box = Box(x0, y0, x0 + draw(st.integers(0, 8)), y0 + draw(st.integers(0, 8)))
        members.append((draw(scores), box, draw(bit_grids(height, width))))
    return group_of(members)


class TestFuseGroupEquivalence:
    @given(group=mask_groups())
    @example(group=group_of([(0.7, Box(0, 0, 1, 1), [[1]])]))
    @example(group=group_of([(0.0, Box(0, 0, 2, 1), [[1, 0]]), (0.0, Box(0, 0, 2, 1), [[1, 1]])]))
    @example(
        group=group_of([(0.9, Box(0, 0, 2, 2), [[0, 0], [0, 0]]), (0.8, Box(5, 5, 7, 7), [[1, 1]] * 2)])
    )
    def test_runs_equal_raster_fusion(self, group):
        assert fuse_group(group).mask.runs == fuse_group_raster(group).runs

    def test_grouped_random_predictions(self):
        rng = np.random.default_rng(31)
        predictions = random_predictions(
            rng, 120, n_images=2, n_categories=2, masked=True, mask_size=(23, 17)
        )
        groups = group_predictions(predictions, 0.1)
        assert max(len(g.members) for g in groups) > 2
        for group in groups:
            assert fuse_group(group).mask.runs == fuse_group_raster(group).runs


class TestMaskIouEquivalence:
    @given(data=st.data(), height=st.integers(1, 6), width=st.integers(1, 8))
    def test_runs_equal_raster_iou(self, data, height, width):
        a = mask_encode(data.draw(bit_grids(height, width)))
        b = mask_encode(data.draw(bit_grids(height, width)))
        assert mask_iou(a, b) == mask_iou_raster(a, b)
        assert mask_iou(a, a) == mask_iou_raster(a, a)


def ellipse_mask(size: int, cx: int, cy: int, rx: float, ry: float) -> BinaryMask:
    """Square mask of an ellipse lying inside the frame, one 1-run per row,
    built from its runs without a raster."""
    runs = []
    zeros = 0
    for y in range(size):
        dy = (y + 0.5 - cy) / ry
        half = int(rx * math.sqrt(1.0 - dy * dy)) if abs(dy) < 1.0 else 0
        if half == 0:
            zeros += size
            continue
        runs += [zeros + cx - half, 2 * half]
        zeros = size - (cx + half)
    return BinaryMask(size, size, (*runs, zeros))


def test_fuse_and_iou_memory_stays_below_one_raster():
    # One uint8 raster of this frame is 16.8 MB and a float64 one 134 MB;
    # the run-length path holds only a few arrays of run boundaries.
    size = 4096
    a = ellipse_mask(size, 1800, 2000, 1200, 1500)
    b = ellipse_mask(size, 2300, 2100, 1100, 1400)
    group = PredictionGroup(
        (
            Prediction("im1", "c1", 0.9, Box(600, 500, 3000, 3500), a),
            Prediction("im1", "c1", 0.8, Box(1200, 700, 3400, 3500), b),
        ),
        0,
    )
    tracemalloc.start()
    try:
        fused = fuse_group(group)
        iou = mask_iou(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert 0.0 < iou < 1.0
    assert 0 < mask_area(fused.mask) <= mask_area(a) + mask_area(b)
