"""Acceptance suite.

One test per acceptance criterion, each at its stated tolerance; every test
prints a ``criterion NN <name>: PASS`` (or FAIL) line.  Run with ``-s`` to
see the lines live:

    pytest tests/test_acceptance.py -s
"""

import itertools
import json
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np

from detpipe import (
    Assignment,
    BinaryMask,
    Box,
    GroundTruthInstance,
    Prediction,
    VerificationTable,
    base_lr,
    build_label_matrix,
    classification_loss,
    cosine_lr,
    drop_small_masks,
    ensemble,
    evaluate,
    fileio,
    mask_decode,
    mask_encode,
    match_category,
    average_precision,
    nms,
    split_by_rank,
    trim_to_budget,
)
from detpipe import cli
from detpipe.fileio import empty_predictions_size, serialized_size
from detpipe.synthetic import expert_split_trial, roi_diversity_trial

from generators import random_ground_truth, random_predictions
from oracles import ap_ref, loss_ref, nms_ref, trim_ref

FIXTURES = Path(__file__).parent / "fixtures"


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} {name}: FAIL")
        raise
    print(f"criterion {number:02d} {name}: PASS")


def test_01_nms_oracle_equivalence():
    with criterion(1, "nms-oracle-equivalence"):
        rng = np.random.default_rng(101)
        predictions = random_predictions(rng, 1000, n_images=20, n_categories=5)
        start = time.perf_counter()
        ours = nms(predictions, 0.5)
        elapsed = time.perf_counter() - start
        reference = nms_ref(predictions, 0.5)
        assert sorted(map(id, ours)) == sorted(map(id, reference))
        assert elapsed < 1.0, f"nms took {elapsed:.3f}s on 1000 predictions"


def test_02_ensemble_duplicate_idempotence():
    with criterion(2, "ensemble-duplicate-idempotence"):
        for seed in range(100):
            rng = np.random.default_rng(200 + seed)
            predictions = random_predictions(
                rng, int(rng.integers(10, 60)), n_images=6, n_categories=3
            )
            suppressed = nms(predictions, 0.5)
            fused = ensemble([predictions, predictions], 0.5)
            assert [p.box for p in fused] == [p.box for p in suppressed]
            assert [p.score for p in fused] == [p.score for p in suppressed]
            assert fused == suppressed


def test_03_ensemble_complementarity():
    with criterion(3, "ensemble-complementarity"):
        wins = 0
        for seed in range(100):
            map_a, map_b, map_ens = roi_diversity_trial(seed)
            if map_ens >= max(map_a, map_b):
                wins += 1
        assert wins >= 90, f"ensemble won only {wins}/100 seeds"


def test_04_expert_split_composition():
    with criterion(4, "expert-split-composition"):
        ranking = [f"r{i:03d}" for i in range(120)]
        assert [len(g) for g in split_by_rank(ranking, 50, 100, 1)] == [50]
        assert [len(g) for g in split_by_rank(ranking, 50, 100, 2)] == [25, 25]
        assert [len(g) for g in split_by_rank(ranking, 50, 100, 5)] == [10] * 5
        wins = 0
        for seed in range(100):
            result = expert_split_trial(seed, expert_counts=(1, 5))
            if result[5] >= result[1]:
                wins += 1
        assert wins >= 90, f"finer split won only {wins}/100 seeds"


def test_05_classification_loss_reference():
    with criterion(5, "classification-loss-reference"):
        rng = np.random.default_rng(500)
        for trial in range(1000):
            rows = int(rng.integers(1, 7))
            cols = int(rng.integers(1, 6))
            logits = rng.uniform(-50.0, 50.0, size=(rows, cols))
            if trial % 3 == 0:
                logits.flat[rng.integers(logits.size)] = 50.0
                logits.flat[rng.integers(logits.size)] = -50.0
            labels = rng.integers(-1, 2, size=(rows, cols))
            ours = classification_loss(logits, labels)
            assert np.isfinite(ours)
            assert abs(ours - loss_ref(logits, labels)) <= 1e-9
            # ignore semantics are bit-exact: perturb only the zero-label logits
            perturbed = logits.copy()
            perturbed[labels == 0] = rng.uniform(-50.0, 50.0, size=int((labels == 0).sum()))
            assert classification_loss(perturbed, labels) == ours


def expected_label(roi_kind: str, status: int, is_assigned_category: bool) -> int:
    """Independent statement of the labeling rule for one matrix entry."""
    if roi_kind == "assigned" and is_assigned_category:
        return 1
    return -1 if status != 0 else 0


def test_06_label_matrix_exhaustive():
    with criterion(6, "label-matrix-exhaustive"):
        categories = ("A", "B", "C")
        box = Box(0, 0, 10, 10)
        cases = 0
        for statuses in itertools.product((1, -1, 0), repeat=3):
            entries = {
                ("im", category): status
                for category, status in zip(categories, statuses)
                if status != 0
            }
            verification = VerificationTable(entries)
            positives = [c for c, s in zip(categories, statuses) if s == 1]
            scenarios = [("background", None)]
            scenarios += [("assigned", category) for category in positives]
            for roi_kind, assigned_category in scenarios:
                if roi_kind == "assigned":
                    gts = [GroundTruthInstance("im", assigned_category, box)]
                    assignment = Assignment((0,), (1.0,))
                else:
                    gts = []
                    assignment = Assignment((None,), (0.0,))
                matrix = build_label_matrix(
                    assignment, gts, verification, "im", categories
                )
                row = matrix.values[0].tolist()
                expected = [
                    expected_label(roi_kind, status, category == assigned_category)
                    for category, status in zip(categories, statuses)
                ]
                assert row == expected, (
                    f"statuses={statuses} roi={roi_kind} assigned={assigned_category}: "
                    f"got {row}, expected {expected}"
                )
                cases += 1
        assert cases >= 24, f"only {cases} cases enumerated"


def test_07_average_precision_oracle():
    with criterion(7, "average-precision-oracle"):
        rng = np.random.default_rng(700)
        instances = 0
        while instances < 500:
            gts = random_ground_truth(
                rng, int(rng.integers(1, 6)), n_images=3, n_categories=2
            )
            predictions = random_predictions(
                rng, int(rng.integers(0, 7)), n_images=3, n_categories=2
            )
            entries = {(g.image_id, g.category_id): 1 for g in gts}
            for p in predictions:
                if (p.image_id, p.category_id) not in entries and rng.uniform() < 0.5:
                    entries[(p.image_id, p.category_id)] = -1
            table = VerificationTable(entries)
            for category in sorted({g.category_id for g in gts}):
                preds_c = [p for p in predictions if p.category_id == category]
                gts_c = [g for g in gts if g.category_id == category]
                match = match_category(preds_c, gts_c, table, 0.5)
                ours = average_precision(match, len(gts_c))
                exact = ap_ref(match.flags, len(gts_c))
                assert abs(ours - float(exact)) <= 1e-9
                instances += 1
        # the hand-worked fixture evaluates to its frozen values
        d = FIXTURES / "golden_eval"
        report = evaluate(
            fileio.parse_predictions((d / "predictions.csv").read_bytes()),
            fileio.parse_ground_truth((d / "ground_truth.csv").read_bytes()),
            fileio.parse_verification((d / "verification.csv").read_bytes()),
            fileio.parse_hierarchy((d / "hierarchy.json").read_bytes()),
        )
        by_category = {r.category_id: r for r in report.results}
        assert by_category["c1"].ap == 0.7333333333333334  # 11/15 in float steps
        assert by_category["c2"].ap == 0.5
        assert report.mean_ap == 0.6166666666666667  # 37/60
        assert abs(by_category["c1"].ap - Fraction(11, 15)) < 5e-16
        assert abs(report.mean_ap - Fraction(37, 60)) < 5e-16


def test_08_cosine_schedule():
    with criterion(8, "cosine-schedule"):
        eta0 = base_lr(240)
        assert abs(eta0 - 0.3) <= 1e-12
        assert abs(cosine_lr(0.0, eta0) - eta0) <= 1e-12
        assert abs(cosine_lr(0.5, 0.3) - 0.15) <= 1e-12
        assert abs(cosine_lr(1.0, eta0) - 0.0) <= 1e-12


def test_09_small_mask_boundary():
    with criterion(9, "small-mask-boundary"):
        def with_area(area):
            runs = (0, area, 100 * 100 - area)
            return Prediction("im1", "c1", 0.5, Box(0, 0, 10, 10), BinaryMask(100, 100, runs))

        at_1599 = with_area(1599)
        at_1600 = with_area(1600)
        kept = drop_small_masks([at_1599, at_1600], 1600)
        assert kept == [at_1600]


def test_10_budget_trimming():
    with criterion(10, "budget-trimming"):
        rng = np.random.default_rng(1000)
        for _ in range(30):
            predictions = random_predictions(
                rng, int(rng.integers(1, 60)), n_images=5, n_categories=4
            )
            header = empty_predictions_size()
            budget = int(rng.integers(header, serialized_size(predictions) + 32))
            survivors, report = trim_to_budget(predictions, budget)
            assert serialized_size(survivors) <= budget
            ref_survivors, ref_removed = trim_ref(predictions, budget, serialized_size)
            assert survivors == ref_survivors
            assert {c: n for c, n in report.removed.items() if n} == ref_removed

        # scale: 100k predictions trimmed in under 5 seconds
        big = []
        scores = rng.uniform(0.0, 1.0, size=100_000)
        corners = rng.uniform(0.0, 900.0, size=(100_000, 2))
        for i in range(100_000):
            x0, y0 = corners[i]
            big.append(
                Prediction(
                    f"im{i % 200:03d}",
                    f"c{i % 50:02d}",
                    float(scores[i]),
                    Box(x0, y0, x0 + 50.0, y0 + 50.0),
                )
            )
        budget = int(serialized_size(big) * 0.6)
        start = time.perf_counter()
        survivors, _ = trim_to_budget(big, budget)
        elapsed = time.perf_counter() - start
        assert serialized_size(survivors) <= budget
        assert elapsed < 5.0, f"100k-prediction trim took {elapsed:.2f}s"


def test_11_rle_round_trip():
    with criterion(11, "rle-round-trip"):
        rng = np.random.default_rng(1100)
        for _ in range(1000):
            width = int(rng.integers(1, 513))
            height = int(rng.integers(1, 513))
            style = rng.uniform()
            if style < 0.4:
                grid = (rng.uniform(size=(height, width)) < rng.uniform()).astype(np.uint8)
            elif style < 0.7:
                grid = np.zeros((height, width), dtype=np.uint8)
                x0 = int(rng.integers(0, width))
                y0 = int(rng.integers(0, height))
                grid[y0 : int(rng.integers(y0, height)) + 1, x0 : int(rng.integers(x0, width)) + 1] = 1
            elif style < 0.85:
                grid = np.zeros((height, width), dtype=np.uint8)
            else:
                grid = np.ones((height, width), dtype=np.uint8)
            mask = mask_encode(grid)
            assert np.array_equal(mask_decode(mask), grid)
            recoded = mask_encode(mask_decode(mask))
            assert recoded == mask
            field = " ".join(str(r) for r in mask.runs)
            refield = " ".join(str(r) for r in recoded.runs)
            assert field == refield


def test_12_pipeline_determinism(tmp_path, capsys):
    with criterion(12, "pipeline-determinism"):
        fixture = FIXTURES / "pipeline"
        outputs = (
            "ensembled.csv",
            "filtered.csv",
            "trimmed.csv",
            "trim_report.csv",
            "eval_report.csv",
        )
        contents = []
        for label in ("one", "two"):
            run_dir = tmp_path / label
            code = cli.run(
                [
                    "pipeline",
                    "--config",
                    str(fixture / "config.ini"),
                    "--run-dir",
                    str(run_dir),
                ]
            )
            assert code == 0
            contents.append({name: (run_dir / name).read_bytes() for name in outputs})
            manifest = json.loads((run_dir / "manifest.json").read_text())
            assert all(stage["status"] == "ok" for stage in manifest["stages"])
        assert contents[0] == contents[1], "two consecutive runs differ"
        capsys.readouterr()
