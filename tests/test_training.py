import math
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from detpipe import (
    Box,
    GroundTruthInstance,
    SamplerConfig,
    SplitMix64,
    ValidationError,
    base_lr,
    cosine_lr,
    fnv1a64,
    partition_pool,
    sample_rois,
)
from detpipe.federated import assign_rois
from detpipe.geometry import box_iou

from generators import HUGE_BOX, overlap_boxes


class TestSplitMix64:
    def test_determinism(self):
        a = SplitMix64(1234)
        b = SplitMix64(1234)
        assert [a.next_uint64() for _ in range(10)] == [b.next_uint64() for _ in range(10)]

    def test_outputs_are_64_bit(self):
        rng = SplitMix64(99)
        for _ in range(100):
            value = rng.next_uint64()
            assert 0 <= value < 2**64

    def test_below_respects_bound(self):
        rng = SplitMix64(5)
        for bound in (1, 2, 3, 7, 1000):
            for _ in range(50):
                assert 0 <= rng.below(bound) < bound

    def test_below_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            SplitMix64(0).below(0)

    def test_sample_distinct(self):
        rng = SplitMix64(17)
        picked = rng.sample(list(range(30)), 12)
        assert len(picked) == len(set(picked)) == 12

    def test_sample_too_many(self):
        with pytest.raises(ValidationError):
            SplitMix64(0).sample([1, 2], 3)

    def test_fnv1a64_stable(self):
        assert fnv1a64("") == 0xCBF29CE484222325
        assert fnv1a64("im1") == fnv1a64("im1")
        assert fnv1a64("im1") != fnv1a64("im2")


def corners_of(boxes):
    return np.array([(b.x_min, b.y_min, b.x_max, b.y_max) for b in boxes]).reshape(-1, 4)


def outcome(fn, *args):
    """The call's result, or its error type and message."""
    try:
        return "ok", fn(*args)
    except ValidationError as exc:
        return type(exc).__name__, str(exc)


def boxes_at(*corners):
    return [Box(x, y, x + 10, y + 10) for x, y in corners]


def sample_rois_loop(rois, gt_boxes, config: SamplerConfig) -> list[int]:
    """sample_rois with a loop over (RoI, ground truth) pairs; the body is the
    one it had before the loop became geometry._best_overlaps."""
    if not rois:
        raise ValidationError("RoI pool for the image is empty")
    n_take = min(config.n_sample, len(rois))
    foreground: list[int] = []
    background: list[int] = []
    for index, roi in enumerate(rois):
        best = max((box_iou(roi, gt) for gt in gt_boxes), default=0.0)
        if best >= config.fg_iou_threshold:
            foreground.append(index)
        else:
            background.append(index)
    fg_quota = math.ceil(config.fg_fraction * config.n_sample)
    fg_take = min(len(foreground), fg_quota, n_take)
    bg_take = min(len(background), n_take - fg_take)
    fg_take = min(len(foreground), n_take - bg_take)
    rng = SplitMix64(config.seed)
    return rng.sample(foreground, fg_take) + rng.sample(background, bg_take)


sampler_configs = st.builds(
    SamplerConfig,
    n_sample=st.integers(1, 16),
    fg_fraction=st.sampled_from([0.05, 0.25, 0.5, 0.9]),
    fg_iou_threshold=st.one_of(
        st.sampled_from([0.25, 0.5, 1.0]), st.floats(0.0, 1.0, exclude_min=True)
    ),
    seed=st.integers(0, 2**64 - 1),
)


class TestSampleRois:
    @given(
        st.lists(overlap_boxes(), min_size=1, max_size=16),
        st.lists(overlap_boxes(), max_size=6),
        sampler_configs,
    )
    # Tied IoUs, zero area, touching edges, no ground truth, and nan IoUs
    # first (HUGE_BOX with itself) and later (after a box).
    @example([Box(0, 0, 2, 2)], [Box(1, 0, 3, 2), Box(-1, 0, 1, 2)], SamplerConfig(4))
    @example([Box(1, 1, 1, 1), Box(0, 0, 1, 1)], [Box(1, 1, 1, 1)], SamplerConfig(1))
    @example([Box(0, 0, 1, 1)], [Box(1, 0, 2, 1), Box(0, 1, 1, 2)], SamplerConfig(2))
    @example([Box(0, 0, 1, 1), HUGE_BOX], [], SamplerConfig(2))
    @example([HUGE_BOX, Box(0, 0, 1, 1)], [HUGE_BOX, Box(0, 0, 1, 1)], SamplerConfig(2, 0.5))
    @example([HUGE_BOX, Box(0, 0, 1, 1)], [Box(0, 0, 1, 1), HUGE_BOX], SamplerConfig(2, 0.5))
    # A nan IoU with the first ground truth, then an IoU of 0.5.
    @example(
        [Box(1, -1e308, 1.5, 0)], [Box(0, -1e308, 0, 1e308), Box(1, -1e308, 2, 0)], SamplerConfig(1)
    )
    def test_matches_the_pair_loop(self, rois, gt_boxes, config):
        assert sample_rois(rois, gt_boxes, config) == sample_rois_loop(rois, gt_boxes, config)

    def test_small_pool_returns_everything(self):
        pool = boxes_at((0, 0), (20, 20), (40, 40))
        picked = sample_rois(pool, [], SamplerConfig(n_sample=8, seed=1))
        assert sorted(picked) == [0, 1, 2]

    def test_stratum_counts(self):
        gt = [Box(0, 0, 10, 10)]
        fg = [Box(0, 0, 10, 10) for _ in range(10)]
        bg = [Box(100, 100, 110, 110) for _ in range(10)]
        pool = fg + bg
        config = SamplerConfig(n_sample=4, fg_fraction=0.25, seed=3)
        picked = sample_rois(pool, gt, config)
        n_fg = sum(1 for i in picked if i < 10)
        assert n_fg == 1
        assert len(picked) == 4

    def test_deterministic(self):
        gt = [Box(0, 0, 10, 10)]
        pool = boxes_at(*[(i, i) for i in range(20)])
        config = SamplerConfig(n_sample=6, seed=42)
        assert sample_rois(pool, gt, config) == sample_rois(pool, gt, config)

    def test_no_duplicates(self):
        pool = boxes_at(*[(3 * i, 0) for i in range(50)])
        picked = sample_rois(pool, [], SamplerConfig(n_sample=30, seed=9))
        assert len(picked) == len(set(picked)) == 30

    def test_background_shortfall_filled_from_foreground(self):
        gt = [Box(0, 0, 10, 10)]
        pool = [Box(0, 0, 10, 10) for _ in range(10)]  # all foreground
        picked = sample_rois(pool, gt, SamplerConfig(n_sample=4, fg_fraction=0.25, seed=1))
        assert len(picked) == 4

    def test_foreground_shortfall_filled_from_background(self):
        pool = [Box(100 * i, 0, 100 * i + 10, 10) for i in range(1, 11)]
        picked = sample_rois(pool, [Box(0, 0, 10, 10)], SamplerConfig(n_sample=4, seed=1))
        assert len(picked) == 4

    def test_empty_pool_is_error(self):
        with pytest.raises(ValidationError):
            sample_rois([], [], SamplerConfig())

    @given(
        st.lists(overlap_boxes(), max_size=12),
        st.lists(overlap_boxes(), max_size=4),
        sampler_configs,
        st.floats(0.0, 1.0, exclude_min=True),
    )
    @example([], [Box(0, 0, 1, 1)], SamplerConfig(2), 0.5)
    def test_corner_arrays_are_boxes(self, rois, gt_boxes, config, threshold):
        # A pool's [N, 4] corners, as the CLI passes them, give what its
        # boxes give: the same sample or the same error, and the same
        # assignment, for an empty pool too.
        corners, gt_corners = corners_of(rois), corners_of(gt_boxes)
        gts = [GroundTruthInstance("im", "c", box) for box in gt_boxes]
        assert outcome(sample_rois, corners, gt_corners, config) == outcome(
            sample_rois, rois, gt_boxes, config
        )
        # repr, since a nan IoU equals no other.
        assigned = [repr(assign_rois(given, gts, threshold)) for given in (corners, rois)]
        assert assigned[0] == assigned[1]

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            SamplerConfig(n_sample=0)
        with pytest.raises(ValidationError):
            SamplerConfig(fg_fraction=1.0)
        with pytest.raises(ValidationError):
            SamplerConfig(fg_iou_threshold=0.0)

    def test_counts_and_seeds_must_be_integers(self):
        for fields in (
            {"n_sample": 2.5},
            {"n_sample": True},
            {"n_sample": float("inf")},
            {"seed": 1.5},
            {"seed": False},
            {"seed": None},
        ):
            with pytest.raises(ValidationError, match="must be an integer"):
                SamplerConfig(**fields)

    def test_n_sample_must_convert_to_a_float(self):
        # The foreground quota is fg_fraction * n_sample, a float.
        with pytest.raises(ValidationError, match="^n_sample is too large to convert to a float$"):
            SamplerConfig(n_sample=10**400)
        largest = int(sys.float_info.max)
        pool, gt = [Box(0, 0, 1, 1), Box(5, 5, 6, 6)], [Box(0, 0, 1, 1)]
        assert sorted(sample_rois(pool, gt, SamplerConfig(n_sample=largest))) == [0, 1]

    def test_integral_counts_and_seeds_are_stored_as_ints(self):
        config = SamplerConfig(n_sample=4.0, seed=7.0)
        assert (config.n_sample, config.seed) == (4, 7)
        assert (type(config.n_sample), type(config.seed)) == (int, int)


class TestPartitionPool:
    def test_single_partition(self):
        pool = list(range(5))
        assert partition_pool(pool, 1) == [pool]

    def test_round_robin(self):
        assert partition_pool([0, 1, 2, 3, 4], 2) == [[0, 2, 4], [1, 3]]

    def test_zero_partitions_is_error(self):
        with pytest.raises(ValidationError):
            partition_pool([1], 0)

    def test_partition_count_must_be_an_integer(self):
        for k in (1.5, True):
            with pytest.raises(ValidationError, match="must be an integer"):
                partition_pool([1, 2, 3], k)
        # An integral float passes, as it does for a mask's width and height.
        assert partition_pool([1, 2, 3], 2.0) == [[1, 3], [2]]

    @given(pool=st.lists(st.integers(), max_size=40), k=st.integers(1, 8))
    def test_partitions_cover_pool(self, pool, k):
        parts = partition_pool(pool, k)
        assert len(parts) == k
        merged = [None] * len(pool)
        for index, part in enumerate(parts):
            for offset, item in enumerate(part):
                merged[index + offset * k] = item
        assert merged == pool

    @given(pool=st.lists(st.integers(), min_size=1, max_size=40), k=st.integers(1, 8))
    def test_partitions_disjoint_by_index(self, pool, k):
        parts = partition_pool(list(range(len(pool))), k)
        seen = set()
        for part in parts:
            for index in part:
                assert index not in seen
                seen.add(index)
        assert seen == set(range(len(pool)))


class TestLearningRate:
    def test_base_lr_values(self):
        assert base_lr(240) == pytest.approx(0.3, abs=1e-15)
        assert base_lr(1) == 0.00125
        assert base_lr(8) == pytest.approx(0.01, abs=1e-15)

    def test_base_lr_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            base_lr(0)

    def test_cosine_endpoints(self):
        assert cosine_lr(0.0, 0.3) == 0.3
        assert cosine_lr(1.0, 0.3) == 0.0

    def test_cosine_midpoint(self):
        assert cosine_lr(0.5, 0.3) == pytest.approx(0.15, abs=1e-12)

    def test_cosine_domain(self):
        with pytest.raises(ValidationError):
            cosine_lr(-0.01, 0.3)
        with pytest.raises(ValidationError):
            cosine_lr(1.01, 0.3)
        with pytest.raises(ValidationError):
            cosine_lr(0.5, 0.0)

    def test_monotone_non_increasing(self):
        values = [cosine_lr(i / 100, 0.3) for i in range(101)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_linear_in_eta0(self):
        for progress in (0.0, 0.25, 0.6, 1.0):
            assert cosine_lr(progress, 0.6) == pytest.approx(
                2 * cosine_lr(progress, 0.3), abs=1e-15
            )
