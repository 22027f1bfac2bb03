import numpy as np
import pytest

from detpipe import (
    BinaryMask,
    Box,
    Prediction,
    ValidationError,
    drop_small_masks,
    fileio,
    serialized_size,
    trim_to_budget,
)
from detpipe.fileio import empty_predictions_size

from generators import random_predictions
from oracles import trim_ref


def mask_of_area(area, width=100, height=100):
    if area == 0:
        return BinaryMask(width, height, (width * height,))
    rest = width * height - area
    runs = (0, area) if rest == 0 else (0, area, rest)
    return BinaryMask(width, height, runs)


def pred(score=0.5, category="c1", image="im1", mask=None):
    return Prediction(image, category, score, Box(0, 0, 10, 10), mask)


class TestDropSmallMasks:
    def test_boundary_is_strict(self):
        small = pred(mask=mask_of_area(1599))
        large = pred(mask=mask_of_area(1600))
        assert drop_small_masks([small, large], 1600) == [large]

    def test_box_only_passes(self):
        p = pred()
        assert drop_small_masks([p], 1600) == [p]

    def test_empty(self):
        assert drop_small_masks([], 1600) == []

    def test_idempotent_and_order_preserving(self):
        records = [
            pred(0.9, mask=mask_of_area(2000)),
            pred(0.8, mask=mask_of_area(100)),
            pred(0.7),
            pred(0.6, mask=mask_of_area(1601)),
        ]
        once = drop_small_masks(records, 1600)
        assert once == [records[0], records[2], records[3]]
        assert drop_small_masks(once, 1600) == once


class TestTrimToBudget:
    def test_under_budget_unchanged(self):
        records = [pred(0.5), pred(0.6, category="c2")]
        budget = serialized_size(records)
        survivors, report = trim_to_budget(records, budget)
        assert survivors == records
        assert report.removed == {"c1": 0, "c2": 0}
        assert report.final_bytes == budget
        assert report.budget == budget

    def test_removals_hit_most_frequent_category(self):
        records = [pred(0.1 * i, category="big") for i in range(1, 6)]
        records.append(pred(0.99, category="small"))
        budget = serialized_size(records) - 1  # forces removals, all from "big"
        survivors, report = trim_to_budget(records, budget)
        assert report.removed["small"] == 0
        assert report.removed["big"] >= 1
        ref_survivors, ref_removed = trim_ref(records, budget, serialized_size)
        assert survivors == ref_survivors
        assert {c: n for c, n in report.removed.items() if n} == ref_removed

    def test_lowest_scores_removed_first(self):
        records = [pred(s, category="c") for s in (0.9, 0.1, 0.5, 0.3)]
        budget = serialized_size(records[:2])
        survivors, report = trim_to_budget(records, budget)
        assert [p.score for p in survivors] == [0.9, 0.5]
        assert report.removed == {"c": 2}

    def test_tie_on_score_removes_latest(self):
        records = [pred(0.5, category="c"), pred(0.5, category="c")]
        budget = serialized_size(records[:1])
        survivors, _ = trim_to_budget(records, budget)
        assert survivors == [records[0]]

    def test_matches_step_through_oracle_on_random_inputs(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            records = random_predictions(rng, int(rng.integers(1, 40)), n_images=4)
            full = serialized_size(records)
            header = empty_predictions_size()
            budget = int(rng.integers(header, full + 20))
            survivors, report = trim_to_budget(records, budget)
            assert serialized_size(survivors) <= budget
            ref_survivors, ref_removed = trim_ref(records, budget, serialized_size)
            assert survivors == ref_survivors
            assert {c: n for c, n in report.removed.items() if n} == ref_removed
            assert report.final_bytes == serialized_size(survivors)

    def test_budget_below_header_is_error(self):
        with pytest.raises(ValidationError):
            trim_to_budget([], empty_predictions_size() - 1)

    def test_output_is_subset_in_input_order(self):
        rng = np.random.default_rng(56)
        records = random_predictions(rng, 30, n_images=3)
        budget = serialized_size(records) // 2
        survivors, _ = trim_to_budget(records, budget)
        it = iter(records)
        for p in survivors:
            for candidate in it:
                if candidate is p:
                    break
            else:
                pytest.fail("survivor out of order or not from the input")

    def test_removed_scores_below_surviving_scores(self):
        rng = np.random.default_rng(57)
        records = random_predictions(rng, 40, n_images=2, n_categories=2)
        budget = serialized_size(records) * 2 // 3
        survivors, report = trim_to_budget(records, budget)
        surviving = {}
        for p in survivors:
            surviving.setdefault(p.category_id, []).append(p.score)
        removed = {}
        survivor_ids = {id(p) for p in survivors}
        for p in records:
            if id(p) not in survivor_ids:
                removed.setdefault(p.category_id, []).append(p.score)
        for category, scores in removed.items():
            if category in surviving:
                assert max(scores) <= min(surviving[category])

    def test_given_table_is_left_as_it_is(self):
        # A pipeline may hand one parsed table to several stages, so trim
        # keeps the lines it formats on its survivors only.
        rng = np.random.default_rng(58)
        table = fileio.parse_prediction_table(
            fileio.write_predictions(random_predictions(rng, 30, n_images=3))
        )
        survivors, _ = trim_to_budget(table, serialized_size(table) // 2)
        assert table.lines is None
        assert fileio.write_predictions(survivors) == fileio.write_predictions(survivors.rows())

    def test_commutes_with_drop_small_masks(self):
        records = [
            pred(0.9, mask=mask_of_area(2000)),
            pred(0.2, mask=mask_of_area(100)),
            pred(0.8, category="c2", mask=mask_of_area(1700)),
        ]
        filtered = drop_small_masks(records, 1600)
        budget = serialized_size(filtered)
        survivors, _ = trim_to_budget(filtered, budget)
        assert drop_small_masks(survivors, 1600) == survivors
