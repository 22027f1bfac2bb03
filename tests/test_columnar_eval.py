"""Columnar evaluation and verification expansion over codes, checked against
the code they replaced: `evaluate` matched each category's bucket of rows
through `match_category`, and `expand_verification` built sets of string
pairs.  The references below are kept as they were so the columnar code can
be held to them: the same report bytes, the same `mean_ap` bit for bit, or
the same error."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detpipe import (
    BinaryMask,
    Box,
    GroundTruthInstance,
    Hierarchy,
    Prediction,
    ValidationError,
    VerificationTable,
    evaluate,
    expand_verification,
    fileio,
    mask_encode,
)
from detpipe.evaluation import (
    IGNORED,
    CategoryResult,
    EvalReport,
    average_precision,
    match_category,
)
from detpipe.geometry import mask_iou
from detpipe.records import NEGATIVE, POSITIVE
from detpipe.table import PredictionTable

# -- references ------------------------------------------------------------------


def expand_verification_ref(table, hierarchy):
    """Reference: sets of (image_id, category_id) pairs."""
    positives: set[tuple[str, str]] = set()
    negatives: set[tuple[str, str]] = set()
    # Each category's closure is walked once per call, not once per entry.
    ancestors: dict[str, frozenset[str]] = {}
    descendants: dict[str, frozenset[str]] = {}
    for (image_id, category_id), sign in table.items():
        if sign == POSITIVE:
            positives.add((image_id, category_id))
            if category_id not in ancestors:
                ancestors[category_id] = hierarchy.ancestors(category_id)
            for ancestor in ancestors[category_id]:
                positives.add((image_id, ancestor))
        else:
            negatives.add((image_id, category_id))
            if category_id not in descendants:
                descendants[category_id] = hierarchy.descendants(category_id)
            for descendant in descendants[category_id]:
                negatives.add((image_id, descendant))
    # Building the result table below is this function's memory peak; the
    # closures are not needed for it.
    del ancestors, descendants
    conflicts = sorted(positives & negatives)
    if conflicts:
        listing = "; ".join(f"image {img!r}, category {cat!r}" for img, cat in conflicts)
        raise ValidationError(
            f"hierarchy expansion produces conflicting verifications: {listing}"
        )
    entries: dict[tuple[str, str], int] = {key: POSITIVE for key in positives}
    entries.update({key: NEGATIVE for key in negatives})
    return VerificationTable(entries)


def mask_overlap_ref(p, g):
    """Mask IoU; a size mismatch names the image."""
    if (p.mask.width, p.mask.height) != (g.mask.width, g.mask.height):
        raise ValidationError(
            f"mask dimensions differ on image {p.image_id!r}: "
            f"{p.mask.width}x{p.mask.height} vs {g.mask.width}x{g.mask.height}"
        )
    return mask_iou(p.mask, g.mask)


def evaluate_ref(predictions, gts, verification, hierarchy, iou_threshold=0.5, mode="box"):
    """Per-category AP and the mean over categories with at least one GT.

    The verification table is hierarchy-expanded before matching, and every
    ground truth must then be positively verified on its image.
    """
    if mode not in ("box", "mask"):
        raise ValidationError(f"mode must be 'box' or 'mask', got {mode!r}")
    if mode == "mask":
        for record in (*predictions, *gts):
            if record.mask is None:
                raise ValidationError(
                    f"mask-mode evaluation requires masks; missing on image "
                    f"{record.image_id!r}, category {record.category_id!r}"
                )
    expanded = expand_verification_ref(verification, hierarchy)
    for gt in gts:
        if expanded.status(gt.image_id, gt.category_id) != POSITIVE:
            raise ValidationError(
                f"ground-truth category {gt.category_id!r} on image "
                f"{gt.image_id!r} is not positively verified"
            )
    if not gts:
        raise ValidationError("cannot evaluate with no ground-truth instances")
    # One pass buckets the records by category; each bucket keeps input order.
    preds_by_category: dict[str, list[Prediction]] = {}
    for p in predictions:
        preds_by_category.setdefault(p.category_id, []).append(p)
    gts_by_category: dict[str, list[GroundTruthInstance]] = {}
    for g in gts:
        gts_by_category.setdefault(g.category_id, []).append(g)
    results: list[CategoryResult] = []
    ap_values: list[float] = []
    for category_id in sorted(preds_by_category.keys() | gts_by_category.keys()):
        preds_c = preds_by_category.get(category_id, [])
        gts_c = gts_by_category.get(category_id, [])
        overlap = mask_overlap_ref if mode == "mask" else None
        match = match_category(preds_c, gts_c, expanded, iou_threshold, overlap)
        ignored = sum(1 for flag in match.flags if flag == IGNORED)
        if gts_c:
            ap = average_precision(match, len(gts_c))
            ap_values.append(ap)
        else:
            ap = None
        results.append(
            CategoryResult(
                category_id=category_id,
                ap=ap,
                gt_count=len(gts_c),
                prediction_count=len(preds_c),
                ignored_count=ignored,
            )
        )
    mean_ap = sum(ap_values) / len(ap_values)
    return EvalReport(results=tuple(results), mean_ap=mean_ap)


def outcome(function, *args):
    """The report's bytes and mean_ap's bits, or the error raised."""
    try:
        report = function(*args)
    except ValidationError as exc:
        return (type(exc).__name__, str(exc))
    return fileio.write_eval_report(report), report.mean_ap.hex()


def assert_same(predictions, gts, table, hierarchy, threshold=0.5, mode="box"):
    """evaluate on rows, on their table and on a table taken from a larger
    one, whose vocabularies name ids no row has, against the reference;
    returns the reference's outcome."""
    args = (gts, table, hierarchy, threshold, mode)
    expected = outcome(evaluate_ref, predictions, *args)
    assert outcome(evaluate, predictions, *args) == expected
    assert outcome(evaluate, PredictionTable.from_rows(predictions), *args) == expected
    extra = Prediction("zz", "zz", 0.5, Box(0.0, 0.0, 1.0, 1.0))
    taken = PredictionTable.from_rows([extra, *predictions]).take(np.arange(1, len(predictions) + 1))
    assert outcome(evaluate, taken, *args) == expected
    return expected


# -- random worlds -----------------------------------------------------------------

# Boxes on a coarse grid, so that overlaps tie; one far away overlaps nothing.
GRID_BOX = st.one_of(
    st.tuples(st.integers(0, 6), st.integers(0, 2)).map(
        lambda xy: Box(xy[0], xy[1], xy[0] + 10.0, xy[1] + 10.0)
    ),
    st.just(Box(50.0, 50.0, 60.0, 60.0)),
)
# Few distinct scores, so that scores tie; 1/3 is the IoU of two boxes that
# overlap by half a side, so a match can land exactly on the threshold.
SCORE = st.one_of(st.sampled_from([0.25, 0.5, 0.75]), st.floats(0.0, 1.0))
THRESHOLD = st.sampled_from([0.5, 1 / 3, 0.01, 0.7, 1.0])


def grid_mask(bits: int, size: tuple[int, int]) -> BinaryMask:
    width, height = size
    grid = np.array([(bits >> k) & 1 for k in range(width * height)], dtype=np.uint8)
    return mask_encode(grid.reshape(height, width))


@st.composite
def worlds(draw, masked: bool):
    n_categories = draw(st.integers(1, 5))
    categories = [f"c{i}" for i in range(n_categories)]
    images = [f"im{i}" for i in range(draw(st.integers(1, 4)))]
    edges = [
        (categories[i], categories[j])
        for i in range(n_categories)
        for j in range(i + 1, n_categories)
        if draw(st.integers(0, 4)) == 0
    ]
    # Ground truths use the first categories only, so others have none.
    with_gt = categories[: draw(st.integers(1, n_categories))]
    # Masks are 3x2; now and then one is 2x3, the same pixel count.
    size = st.sampled_from([(3, 2)] * 24 + [(2, 3)]) if masked else st.just(None)

    def mask():
        shape = draw(size)
        return None if shape is None else grid_mask(draw(st.integers(0, 63)), shape)

    gts = [
        GroundTruthInstance(
            draw(st.sampled_from(images)), draw(st.sampled_from(with_gt)), draw(GRID_BOX), mask()
        )
        for _ in range(draw(st.integers(0, 10)))
    ]
    predictions = []
    for _ in range(draw(st.integers(0, 25))):
        if gts and draw(st.booleans()):
            near = draw(st.sampled_from(gts))
            image_id, category_id = near.image_id, near.category_id
        else:
            image_id = draw(st.sampled_from(images))
            category_id = draw(st.sampled_from(categories))
        predictions.append(Prediction(image_id, category_id, draw(SCORE), draw(GRID_BOX), mask()))
    # Every ground truth positive; other pairs negative, positive or absent
    # (unverified), with a negative kept clear of the positives' closures
    # unless the draw asks for a conflict.
    hierarchy = Hierarchy(edges)
    entries = {(g.image_id, g.category_id): POSITIVE for g in gts}
    allow_conflicts = draw(st.integers(0, 5)) == 0
    for image_id in images:
        for category_id in categories:
            sign = draw(st.sampled_from([None, None, NEGATIVE, POSITIVE]))
            if sign is None or (image_id, category_id) in entries:
                continue
            below = hierarchy.descendants(category_id) | {category_id}
            clash = any(entries.get((image_id, c)) == POSITIVE for c in below)
            if sign == POSITIVE or allow_conflicts or not clash:
                entries[(image_id, category_id)] = sign
    return predictions, gts, VerificationTable(entries), hierarchy, draw(THRESHOLD)


class TestEvaluateMatchesReference:
    @given(worlds(masked=False))
    @settings(max_examples=300, deadline=None)
    def test_box_mode(self, world):
        predictions, gts, table, hierarchy, threshold = world
        assert_same(predictions, gts, table, hierarchy, threshold, "box")

    @given(worlds(masked=True))
    @settings(max_examples=200, deadline=None)
    def test_mask_mode(self, world):
        predictions, gts, table, hierarchy, threshold = world
        assert_same(predictions, gts, table, hierarchy, threshold, "mask")

    @given(worlds(masked=False))
    @settings(max_examples=100, deadline=None)
    def test_expand_verification(self, world):
        _, _, table, hierarchy, _ = world
        ours = outcome_of(expand_verification, table, hierarchy)
        reference = outcome_of(expand_verification_ref, table, hierarchy)
        assert ours == reference


def outcome_of(function, *args):
    try:
        return function(*args).entries
    except ValidationError as exc:
        return str(exc)


def test_matching_rules_on_a_hand_world():
    # One image, one category, threshold 1/3.  Two ground truths with the
    # same box: the earlier wins the tie.  A later, strictly better ground
    # truth wins over an earlier one.  An overlap of exactly 1/3 matches.
    box = Box(0.0, 0.0, 10.0, 10.0)
    half = Box(0.0, 5.0, 10.0, 15.0)  # IoU with box: 50 / 150
    gts = [
        GroundTruthInstance("im", "c", half),
        GroundTruthInstance("im", "c", box),
        GroundTruthInstance("im", "c", box),
        GroundTruthInstance("im", "c", Box(40.0, 40.0, 50.0, 50.0)),
    ]
    predictions = [
        Prediction("im", "c", 0.9, box),
        Prediction("im", "c", 0.9, box),
        Prediction("im", "c", 0.8, box),
        Prediction("im", "c", 0.7, Box(20.0, 20.0, 30.0, 30.0)),
    ]
    table = VerificationTable({("im", "c"): POSITIVE})
    report, mean_ap = assert_same(predictions, gts, table, Hierarchy(()), 1 / 3)
    # tp, tp, tp (the half overlap at the threshold), fp; recall 3/4.
    assert float.fromhex(mean_ap) == 0.75


def test_nan_overlap_never_matches():
    # Two boxes this large overflow their areas and their intersection, so
    # their IoU is nan, and a large box's IoU with a small one is 0.
    huge = Box(-1e308, -1e308, 1e308, 1e308)
    small = Box(0.0, 0.0, 10.0, 10.0)
    gts = [GroundTruthInstance("im", "c", huge), GroundTruthInstance("im", "c", small)]
    predictions = [Prediction("im", "c", 0.9, huge), Prediction("im", "c", 0.8, small)]
    table = VerificationTable({("im", "c"): POSITIVE})
    _, mean_ap = assert_same(predictions, gts, table, Hierarchy(()), 0.01)
    # fp, then tp: precisions 0 and 1/2, recalls 0 and 1/2.
    assert float.fromhex(mean_ap) == 0.25


# -- error order -----------------------------------------------------------------


def test_errors_come_in_todays_order():
    hierarchy = Hierarchy([("dog", "animal")])
    box = Box(0.0, 0.0, 10.0, 10.0)
    mask = grid_mask(0b101010, (3, 2))
    conflict = {("im1", "dog"): POSITIVE, ("im1", "animal"): NEGATIVE}
    clean = {("im1", "dog"): POSITIVE}
    gt_dog = GroundTruthInstance("im1", "dog", box, mask)
    gt_cat = GroundTruthInstance("im2", "cat", box, mask)  # never verified
    masked = Prediction("im1", "dog", 0.5, box, mask)
    bare = Prediction("im3", "bird", 0.5, box)

    def error(predictions, gts, entries, threshold, mode):
        result = assert_same(predictions, gts, VerificationTable(entries), hierarchy, threshold, mode)
        assert result[0] == "ValidationError"
        return result[1]

    # Each defect is reported while every later one is present too.
    assert error([bare], [gt_dog, gt_cat], conflict, 0.0, "polygon").startswith("mode must be")
    assert error([masked, bare], [gt_dog, gt_cat], conflict, 0.0, "mask").startswith(
        "mask-mode evaluation requires masks; missing on image 'im3', category 'bird'"
    )
    assert error([bare], [gt_dog, gt_cat], conflict, 0.0, "box").startswith(
        "hierarchy expansion produces conflicting verifications: image 'im1', category 'animal'"
    )
    assert error([bare], [gt_dog, gt_cat], clean, 0.0, "box") == (
        "ground-truth category 'cat' on image 'im2' is not positively verified"
    )
    assert error([bare], [], clean, 0.0, "box") == "cannot evaluate with no ground-truth instances"
    assert error([bare], [gt_dog], clean, 0.0, "box") == "IoU threshold must be in (0, 1], got 0.0"
    # A ground truth without a mask, after every prediction has one.
    assert error([masked], [gt_dog, GroundTruthInstance("im1", "dog", box)], conflict, 0.5, "mask") == (
        "mask-mode evaluation requires masks; missing on image 'im1', category 'dog'"
    )


def test_first_mask_mismatch_in_category_rank_order():
    # Sizes differ in three strata.  Category a is walked before b, and
    # within a, im3's mismatch (rank 1, at the stratum's second step) comes
    # before im1's (rank 2, at its first step); on im1 both free ground
    # truths mismatch, and the earlier row is reported.
    box = Box(0.0, 0.0, 10.0, 10.0)
    wide, tall, long = (3, 2), (2, 3), (6, 1)
    full = {size: grid_mask(63, size) for size in (wide, tall, long)}
    gts = [
        GroundTruthInstance("im1", "a", box, full[wide]),
        GroundTruthInstance("im1", "a", box, full[long]),
        GroundTruthInstance("im3", "a", box, full[wide]),
        GroundTruthInstance("im3", "a", box, full[wide]),
        GroundTruthInstance("im2", "b", box, full[wide]),
    ]
    predictions = [
        Prediction("im2", "b", 0.99, box, full[tall]),
        Prediction("im1", "a", 0.8, box, full[tall]),
        Prediction("im3", "a", 0.95, box, full[wide]),
        Prediction("im3", "a", 0.9, box, full[tall]),
    ]
    table = VerificationTable({(g.image_id, g.category_id): POSITIVE for g in gts})

    def first_error():
        return assert_same(predictions, gts, table, Hierarchy(()), 0.5, "mask")

    message = "mask dimensions differ on image {!r}: 2x3 vs 3x2"
    assert first_error() == ("ValidationError", message.format("im3"))
    predictions[3] = Prediction("im3", "a", 0.9, box, full[wide])
    assert first_error() == ("ValidationError", message.format("im1"))
    del predictions[1]
    assert first_error() == ("ValidationError", message.format("im2"))


# -- memory ----------------------------------------------------------------------


def expert_verification() -> tuple[VerificationTable, Hierarchy]:
    """A table shaped like the expert-training benchmark's: 800 images, three
    positive leaves each and two negatives on subtrees that hold none of
    them, under a 5/25/100/500 category tree; about 32k expanded keys."""
    sizes = [5, 25, 100, 500]
    levels = [[f"{'kmpq'[level]}{i:03d}" for i in range(n)] for level, n in enumerate(sizes)]
    edges = []
    for upper, lower in zip(levels, levels[1:]):
        fanout = len(lower) // len(upper)
        edges.extend((child, upper[i // fanout]) for i, child in enumerate(lower))
    rng = np.random.default_rng(3)
    entries = {}
    for image in range(800):
        leaves = rng.choice(500, 3, replace=False).tolist()
        for leaf in leaves:
            entries[(f"img{image:05d}", levels[3][leaf])] = POSITIVE
        for level in (1, 2):
            width = 500 // sizes[level]
            for node in rng.permutation(sizes[level]).tolist():
                if not any(node * width <= leaf < (node + 1) * width for leaf in leaves):
                    entries[(f"img{image:05d}", levels[level][node])] = NEGATIVE
                    break
    return VerificationTable(entries), Hierarchy(edges)


def test_conflict_check_memory_per_expanded_key():
    # The check is one expansion of the whole table, over sorted int64
    # keys, not sets of string pairs and a dict: when the check by a
    # string-keyed expansion peaked at about 254 B per expanded key, the
    # check over keys peaked at about 41.  A table keeps its closure, so
    # the expansion measured is a cold one, of a fresh copy of the table.
    table, hierarchy = expert_verification()
    keys = len(expand_verification(table, hierarchy))
    assert 30_000 < keys < 36_000
    fresh = table.take(np.arange(len(table)))
    tracemalloc.start()
    try:
        expand_verification(fresh, hierarchy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / keys <= 100


def test_expansion_codes_decode_to_the_expanded_table():
    # Positives, then negatives, each in (image_id, category_id) order, as
    # codes into sorted vocabularies.
    table, hierarchy = expert_verification()
    expanded = expand_verification(table, hierarchy)
    reference = expand_verification_ref(table, hierarchy)
    assert expanded == reference
    entries = list(expanded.entries.items())
    positives = [key for key, sign in entries if sign == POSITIVE]
    negatives = [key for key, sign in entries if sign == NEGATIVE]
    assert [key for key, _ in entries] == positives + negatives
    assert positives == sorted(positives) and negatives == sorted(negatives)
    assert list(expanded.image_ids) == sorted(expanded.image_ids)
    assert list(expanded.category_ids) == sorted(expanded.category_ids)
    assert expanded.image_codes.dtype == expanded.category_codes.dtype == np.int32
    assert expanded.signs.dtype == np.int8


@pytest.mark.parametrize("mode", ["box", "mask"])
def test_empty_predictions(mode):
    mask = grid_mask(7, (3, 2))
    gts = [GroundTruthInstance("im", "c", Box(0.0, 0.0, 1.0, 1.0), mask)]
    table = VerificationTable({("im", "c"): POSITIVE})
    assert assert_same([], gts, table, Hierarchy(()), 0.5, mode)[1] == (0.0).hex()
