import importlib
import weakref

import numpy as np
import pytest

from detpipe import (
    BinaryMask,
    Box,
    Prediction,
    PredictionGroup,
    ValidationError,
    box_iou,
    ensemble,
    fuse_group,
    group_predictions,
    mask_decode,
    nms,
)

from detpipe.table import PredictionTable

from generators import random_predictions
from oracles import nms_ref

ensemble_module = importlib.import_module("detpipe.ensemble")


def pred(score, box, image="im1", category="c1", mask=None):
    return Prediction(image, category, score, box, mask)


class TestNms:
    def test_empty(self):
        assert nms([], 0.5) == []

    def test_exact_duplicate_suppressed(self):
        a = pred(0.9, Box(0, 0, 10, 10))
        b = pred(0.8, Box(0, 0, 10, 10))
        assert nms([b, a], 0.5) == [a]

    def test_non_overlapping_survive(self):
        a = pred(0.9, Box(0, 0, 10, 10))
        b = pred(0.8, Box(50, 50, 60, 60))
        assert nms([b, a], 0.5) == [a, b]

    def test_categories_do_not_interact(self):
        a = pred(0.9, Box(0, 0, 10, 10), category="c1")
        b = pred(0.8, Box(0, 0, 10, 10), category="c2")
        assert nms([a, b], 0.5) == [a, b]

    def test_matches_reference_on_random_input(self):
        rng = np.random.default_rng(21)
        predictions = random_predictions(rng, 300)
        ours = nms(predictions, 0.5)
        reference = nms_ref(predictions, 0.5)
        assert sorted(map(id, ours)) == sorted(map(id, reference))

    def test_idempotent(self):
        rng = np.random.default_rng(22)
        predictions = random_predictions(rng, 200)
        once = nms(predictions, 0.5)
        assert nms(once, 0.5) == once

    def test_survivors_do_not_overlap(self):
        rng = np.random.default_rng(23)
        kept = nms(random_predictions(rng, 200), 0.5)
        by_key = {}
        for p in kept:
            by_key.setdefault((p.image_id, p.category_id), []).append(p)
        for stratum in by_key.values():
            for i, a in enumerate(stratum):
                for b in stratum[i + 1 :]:
                    assert box_iou(a.box, b.box) < 0.5

    def test_output_sorted(self):
        rng = np.random.default_rng(24)
        kept = nms(random_predictions(rng, 150), 0.5)
        keys = [(p.image_id, p.category_id, -p.score) for p in kept]
        assert keys == sorted(keys)

    def test_ties_keep_input_order(self):
        a = pred(0.5, Box(0, 0, 10, 10))
        b = pred(0.5, Box(0, 0, 10, 10))
        kept = nms([a, b], 0.5)
        assert kept == [a]

    def test_threshold_domain(self):
        with pytest.raises(ValidationError):
            nms([], 0.0)


class TestGroupPredictions:
    def test_singleton(self):
        p = pred(0.5, Box(0, 0, 10, 10))
        [group] = group_predictions([p], 0.5)
        assert group.members == (p,)
        assert group.seed_index == 0

    def test_overlapping_pair_grouped(self):
        seed = pred(0.9, Box(0, 0, 10, 10))
        other = pred(0.4, Box(0, 0, 10, 9))  # IoU 0.9
        [group] = group_predictions([other, seed], 0.5)
        assert group.seed == seed
        assert set(group.members) == {seed, other}

    def test_same_boxes_different_categories_stay_apart(self):
        a = pred(0.9, Box(0, 0, 10, 10), category="c1")
        b = pred(0.8, Box(0, 0, 10, 10), category="c2")
        groups = group_predictions([a, b], 0.5)
        assert len(groups) == 2

    def test_groups_partition_input(self):
        rng = np.random.default_rng(31)
        predictions = random_predictions(rng, 200)
        groups = group_predictions(predictions, 0.5)
        members = [id(m) for g in groups for m in g.members]
        assert sorted(members) == sorted(map(id, predictions))

    def test_claimed_member_does_not_seed(self):
        # b overlaps seed a; c overlaps b but not a: c must form its own group.
        a = pred(0.9, Box(0, 0, 10, 10))
        b = pred(0.8, Box(4, 0, 14, 10))  # IoU with a = 6/14
        c = pred(0.7, Box(8, 0, 18, 10))  # IoU with b = 6/14, with a = 2/18
        groups = group_predictions([a, b, c], 0.4)
        assert [g.seed.score for g in groups] == [0.9, 0.7]
        assert set(groups[0].members) == {a, b}
        assert groups[1].members == (c,)

    def test_group_invariants_validated(self):
        a = pred(0.9, Box(0, 0, 10, 10))
        b = pred(0.8, Box(0, 0, 10, 10))
        with pytest.raises(ValidationError):
            PredictionGroup(members=(a, b), seed_index=1)
        with pytest.raises(ValidationError):
            PredictionGroup(members=(), seed_index=0)


def solid_mask(width, height, bits):
    return BinaryMask(width, height, bits)


class TestFuseGroup:
    def test_singleton_identity(self):
        mask = solid_mask(4, 1, (0, 4))
        p = pred(0.7, Box(0, 0, 4, 1), mask=mask)
        assert fuse_group(PredictionGroup((p,), 0)) == p

    def test_identical_masks_fuse_to_same(self):
        mask = solid_mask(4, 1, (1, 2, 1))
        a = pred(0.9, Box(0, 0, 10, 10), mask=mask)
        b = pred(0.5, Box(0, 0, 10, 10), mask=mask)
        fused = fuse_group(PredictionGroup((a, b), 0))
        assert fused.mask == mask
        assert fused.box == a.box
        assert fused.score == a.score

    def test_weighted_average_per_pixel(self):
        # Seed weight 0.9; member weight 0.3 * IoU = 0.3 * 9/11.
        seed_box = Box(0, 0, 10, 10)
        member_box = Box(0, 1, 10, 11)
        iou = box_iou(seed_box, member_box)
        assert iou == pytest.approx(9 / 11)
        m1 = solid_mask(4, 1, (0, 2, 2))  # 1 1 0 0
        m2 = solid_mask(4, 1, (1, 2, 1))  # 0 1 1 0
        a = pred(0.9, seed_box, mask=m1)
        b = pred(0.3, member_box, mask=m2)
        fused = fuse_group(PredictionGroup((a, b), 0))
        w_seed, w_member = 0.9, 0.3 * iou
        total = w_seed + w_member
        expected_bits = [
            int(w_seed / total >= 0.5),        # only the seed's mask
            1,                                  # both masks
            int(w_member / total >= 0.5),       # only the member's mask
            0,                                  # neither
        ]
        assert expected_bits == [1, 1, 0, 0]
        assert mask_decode(fused.mask).ravel().tolist() == expected_bits

    def test_box_and_score_come_from_seed(self):
        a = pred(0.9, Box(0, 0, 10, 10))
        b = pred(0.8, Box(1, 1, 11, 11))
        fused = fuse_group(PredictionGroup((a, b), 0))
        assert fused.box == a.box
        assert fused.score == a.score
        assert fused.mask is None

    def test_mixed_mask_presence_is_error(self):
        a = pred(0.9, Box(0, 0, 10, 10), mask=solid_mask(2, 1, (0, 2)))
        b = pred(0.8, Box(0, 0, 10, 10))
        with pytest.raises(ValidationError):
            fuse_group(PredictionGroup((a, b), 0))

    def test_mismatched_mask_dimensions_is_error(self):
        a = pred(0.9, Box(0, 0, 10, 10), mask=solid_mask(2, 1, (0, 2)))
        b = pred(0.8, Box(0, 0, 10, 10), mask=solid_mask(3, 1, (0, 3)))
        with pytest.raises(ValidationError):
            fuse_group(PredictionGroup((a, b), 0))

    def test_zero_scores_fall_back_to_plain_mean(self):
        m1 = solid_mask(2, 1, (0, 2))  # 1 1
        m2 = solid_mask(2, 1, (1, 1))  # 0 1
        a = pred(0.0, Box(0, 0, 10, 10), mask=m1)
        b = pred(0.0, Box(0, 0, 10, 10), mask=m2)
        fused = fuse_group(PredictionGroup((a, b), 0))
        # plain mean: [0.5, 1.0] -> binarized at 0.5 -> [1, 1]
        assert mask_decode(fused.mask).ravel().tolist() == [1, 1]


class TestEnsemble:
    def test_single_set_equals_nms(self):
        rng = np.random.default_rng(41)
        predictions = random_predictions(rng, 120)
        assert ensemble([predictions], 0.5) == nms(predictions, 0.5)

    def test_duplicate_sets_equal_nms(self):
        rng = np.random.default_rng(42)
        predictions = random_predictions(rng, 120)
        assert ensemble([predictions, predictions], 0.5) == nms(predictions, 0.5)

    def test_duplicate_masked_sets_equal_nms(self):
        rng = np.random.default_rng(43)
        predictions = random_predictions(rng, 60, masked=True)
        assert ensemble([predictions, predictions], 0.5) == nms(predictions, 0.5)

    def test_disjoint_images_concatenate(self):
        rng = np.random.default_rng(44)
        set_a = [
            Prediction("a" + p.image_id, p.category_id, p.score, p.box)
            for p in random_predictions(rng, 60)
        ]
        set_b = [
            Prediction("b" + p.image_id, p.category_id, p.score, p.box)
            for p in random_predictions(rng, 60)
        ]
        merged = ensemble([set_a, set_b], 0.5)
        separate = sorted(
            nms(set_a, 0.5) + nms(set_b, 0.5),
            key=lambda p: (p.image_id, p.category_id, -p.score),
        )
        assert merged == separate

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError):
            ensemble([], 0.5)

    def test_fused_score_never_exceeds_members(self):
        rng = np.random.default_rng(46)
        sets = [random_predictions(rng, 80) for _ in range(2)]
        fused = ensemble(sets, 0.5)
        best = max(p.score for s in sets for p in s)
        assert all(p.score <= best for p in fused)

    def test_sets_are_taken_one_at_a_time(self):
        # Each set's table is unreferenced once its survivors are kept, by
        # the time the next set is asked for.
        rng = np.random.default_rng(47)
        rows = [random_predictions(rng, 100) for _ in range(3)]
        still_held = []

        def sets():
            for set_rows in rows:
                table = PredictionTable.from_rows(set_rows)
                boxes = weakref.ref(table.boxes)
                yield table
                del table
                still_held.append(boxes() is not None)

        fused = ensemble(sets(), 0.5)
        assert still_held == [False, False, False]
        assert isinstance(fused, PredictionTable)
        assert fused.rows() == ensemble(rows, 0.5)

    def test_an_invalid_threshold_is_raised_after_every_set_is_taken(self):
        # An error in producing any set comes before the threshold's.
        taken = []

        def sets():
            for k in range(3):
                taken.append(k)
                yield []

        with pytest.raises(ValidationError, match="IoU threshold"):
            ensemble(sets(), 2.0)
        assert taken == [0, 1, 2]

    def test_a_generator_of_no_sets_is_rejected(self):
        with pytest.raises(ValidationError, match="at least one"):
            ensemble(iter([]), 0.5)


@pytest.mark.parametrize("block", [1, 3, 64])
def test_any_pair_block_gives_the_same_groups(block, monkeypatch):
    rng = np.random.default_rng(48)
    sets = [random_predictions(rng, 150) for _ in range(2)]
    expected = [group_predictions(sets[0] + sets[1], 0.5), ensemble(sets, 0.5)]
    monkeypatch.setattr(ensemble_module, "_PAIR_BLOCK", block)
    assert sorted(map(id, nms(sets[0], 0.5))) == sorted(map(id, nms_ref(sets[0], 0.5)))
    assert [group_predictions(sets[0] + sets[1], 0.5), ensemble(sets, 0.5)] == expected
