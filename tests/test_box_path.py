"""The box path's parsers and evaluation, checked against the code they
replaced: the parsers validated every field again in the record constructors,
evaluation filtered every record list once per category, and verification
expansion walked a category's closure once per entry.  The references below
are kept as they were so the faster code can be held to them."""

from collections import Counter

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detpipe import (
    BinaryMask,
    Box,
    GroundTruthInstance,
    Hierarchy,
    ParseError,
    Prediction,
    ValidationError,
    VerificationTable,
    ensemble,
    evaluate,
    expand_verification,
    fileio,
    group_predictions,
    nms,
    serialized_size,
    trim_to_budget,
)
from detpipe.evaluation import (
    IGNORED,
    CategoryResult,
    EvalReport,
    _mask_overlap,
    average_precision,
    match_category,
)
from detpipe.fileio import (
    GROUND_TRUTH_HEADER,
    PREDICTIONS_HEADER,
    _parse_float,
    _parse_int,
    _split,
)
from detpipe.records import NEGATIVE, POSITIVE
from detpipe.table import PredictionTable, _intern

from generators import random_box
from oracles import csv_lines_ref
from timing import size_ratio


# -- references ------------------------------------------------------------------


def parse_mask_fields_ref(parts, line_number):
    """Reference: each mask run parsed on its own."""
    width_s, height_s, rle_s = parts
    if width_s == "" and height_s == "" and rle_s == "":
        return None
    if width_s == "" or height_s == "":
        raise ParseError(line_number, "mask fields must be all empty or all present")
    width = _parse_int(width_s, line_number, "mask_width")
    height = _parse_int(height_s, line_number, "mask_height")
    if rle_s == "":
        raise ParseError(line_number, "mask_rle is empty but dimensions are present")
    runs = tuple(_parse_int(tok, line_number, "mask run") for tok in rle_s.split(" "))
    try:
        return BinaryMask(width, height, runs)
    except ValidationError as exc:
        raise ParseError(line_number, str(exc)) from exc


def parse_predictions_ref(data):
    """Reference: every row through the validating constructors."""
    out = []
    for number, line in csv_lines_ref(data, PREDICTIONS_HEADER):
        parts = _split(line, number, 10)
        mask = parse_mask_fields_ref(parts[7:10], number)
        try:
            box = Box(
                _parse_float(parts[3], number, "x_min"),
                _parse_float(parts[4], number, "y_min"),
                _parse_float(parts[5], number, "x_max"),
                _parse_float(parts[6], number, "y_max"),
            )
            record = Prediction(
                image_id=parts[0],
                category_id=parts[1],
                score=_parse_float(parts[2], number, "score"),
                box=box,
                mask=mask,
            )
        except ParseError:
            # A field that is not a number; the error names its line once.
            raise
        except ValidationError as exc:
            raise ParseError(number, str(exc)) from exc
        out.append(record)
    return out


def parse_ground_truth_ref(data):
    """Reference: every row through the validating constructors."""
    out = []
    for number, line in csv_lines_ref(data, GROUND_TRUTH_HEADER):
        parts = _split(line, number, 9)
        mask = parse_mask_fields_ref(parts[6:9], number)
        try:
            box = Box(
                _parse_float(parts[2], number, "x_min"),
                _parse_float(parts[3], number, "y_min"),
                _parse_float(parts[4], number, "x_max"),
                _parse_float(parts[5], number, "y_max"),
            )
            record = GroundTruthInstance(
                image_id=parts[0], category_id=parts[1], box=box, mask=mask
            )
        except ParseError:
            # A field that is not a number; the error names its line once.
            raise
        except ValidationError as exc:
            raise ParseError(number, str(exc)) from exc
        out.append(record)
    return out


def parse_ground_truth_rows(data):
    return fileio.parse_ground_truth(data).rows()


def expand_verification_ref(table, hierarchy):
    """Reference: the closure walked again for every entry."""
    positives = set()
    negatives = set()
    for (image_id, category_id), sign in table.items():
        if sign == POSITIVE:
            positives.add((image_id, category_id))
            for ancestor in hierarchy.ancestors(category_id):
                positives.add((image_id, ancestor))
        else:
            negatives.add((image_id, category_id))
            for descendant in hierarchy.descendants(category_id):
                negatives.add((image_id, descendant))
    conflicts = sorted(positives & negatives)
    if conflicts:
        listing = "; ".join(f"image {img!r}, category {cat!r}" for img, cat in conflicts)
        raise ValidationError(
            f"hierarchy expansion produces conflicting verifications: {listing}"
        )
    entries = {key: POSITIVE for key in positives}
    entries.update({key: NEGATIVE for key in negatives})
    return VerificationTable(entries)


def evaluate_ref(predictions, gts, verification, hierarchy, iou_threshold=0.5, mode="box"):
    """Reference: both record lists filtered once per category."""
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
    categories = sorted(
        {p.category_id for p in predictions} | {g.category_id for g in gts}
    )
    results = []
    ap_values = []
    for category_id in categories:
        preds_c = [p for p in predictions if p.category_id == category_id]
        gts_c = [g for g in gts if g.category_id == category_id]
        overlap = _mask_overlap if mode == "mask" else None
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
    """A function's result, or the message of the error it raised."""
    try:
        return function(*args)
    except ValidationError as exc:
        return (type(exc).__name__, str(exc))


# -- parse strategies --------------------------------------------------------------

ID_CHARS = st.characters(blacklist_characters=",\n\r", blacklist_categories=("Cs",))
VALID_ID = st.text(ID_CHARS, min_size=1, max_size=4)
ANY_ID = st.text(ID_CHARS, max_size=4)

# Spellings Python's float() accepts and that the file writer never emits.
FLOAT_SPELLINGS = ["1", "-0", "-0.0", "+2.5", " 3", "1_0", "1e1", ".5", "5.", "-1e-400"]
# Finite coordinates, including ones whose sum overflows to inf.
COORD_TEXT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(FLOAT_SPELLINGS + ["1e308", "-1e308", "1.7976931348623157e308"]),
)
VALID_SCORE_TEXT = st.one_of(
    st.floats(0.0, 1.0).map(repr),
    st.sampled_from(["0", "1", "-0.0", "0.5", "1e-400", " 1", "1.0000000000000001"]),
)
ANY_FIELD = st.one_of(
    st.floats().map(repr),
    st.sampled_from(
        FLOAT_SPELLINGS
        + ["nan", "inf", "-inf", "1e999", "-1e999", "1e308", "-1e308", "NaN", "Infinity"]
        + ["", "abc", "0x1", "1x", "1.0000000000000002"]
    ),
)
VALID_MASK = st.sampled_from([("", "", ""), ("2", "2", "1 3"), ("1", "1", "0 1")])
ANY_MASK = st.one_of(
    VALID_MASK,
    st.sampled_from([("2", "", "1 3"), ("2", "2", ""), ("2", "2", "1 9"), ("x", "2", "1")]),
)


@st.composite
def valid_box_text(draw):
    """Four coordinate fields that parse to a valid Box."""
    x = sorted([draw(COORD_TEXT), draw(COORD_TEXT)], key=float)
    y = sorted([draw(COORD_TEXT), draw(COORD_TEXT)], key=float)
    return [x[0], y[0], x[1], y[1]]


@st.composite
def valid_prediction_row(draw):
    mask = draw(VALID_MASK)
    fields = [draw(VALID_ID), draw(VALID_ID), draw(VALID_SCORE_TEXT)]
    return ",".join(fields + draw(valid_box_text()) + list(mask))


@st.composite
def valid_ground_truth_row(draw):
    mask = draw(VALID_MASK)
    fields = [draw(VALID_ID), draw(VALID_ID)]
    return ",".join(fields + draw(valid_box_text()) + list(mask))


@st.composite
def any_box_text(draw):
    """A valid box, one with one field replaced, or four arbitrary fields."""
    texts = draw(valid_box_text())
    kind = draw(st.sampled_from(["valid", "one", "all"]))
    if kind == "one":
        texts[draw(st.integers(0, 3))] = draw(ANY_FIELD)
    elif kind == "all":
        texts = draw(st.lists(ANY_FIELD, min_size=4, max_size=4))
    return texts


@st.composite
def any_prediction_row(draw):
    fields = [draw(ANY_ID), draw(ANY_ID), draw(st.one_of(VALID_SCORE_TEXT, ANY_FIELD))]
    return ",".join(fields + draw(any_box_text()) + list(draw(ANY_MASK)))


@st.composite
def any_ground_truth_row(draw):
    fields = [draw(ANY_ID), draw(ANY_ID)]
    return ",".join(fields + draw(any_box_text()) + list(draw(ANY_MASK)))


def as_file(header, rows):
    return ("\n".join([header, *rows]) + "\n").encode("utf-8")


def assert_same_records(ours, reference):
    assert ours == reference
    assert repr(ours) == repr(reference)
    for record in ours:
        box = record.box
        assert all(type(v) is float for v in (box.x_min, box.y_min, box.x_max, box.y_max))
        if isinstance(record, Prediction):
            assert type(record.score) is float


def assert_same_outcome(parse, parse_reference, data):
    ours, reference = outcome(parse, data), outcome(parse_reference, data)
    if isinstance(reference, list):
        assert_same_records(ours, reference)
    else:
        assert ours == reference


# -- parse equivalence -----------------------------------------------------------


class TestParseMatchesReference:
    @given(st.lists(valid_prediction_row(), max_size=6))
    def test_valid_prediction_rows(self, rows):
        data = as_file(PREDICTIONS_HEADER, rows)
        assert_same_records(fileio.parse_predictions(data), parse_predictions_ref(data))

    @given(st.lists(valid_ground_truth_row(), max_size=6))
    def test_valid_ground_truth_rows(self, rows):
        data = as_file(GROUND_TRUTH_HEADER, rows)
        assert_same_records(parse_ground_truth_rows(data), parse_ground_truth_ref(data))

    @given(st.lists(valid_prediction_row(), max_size=3), any_prediction_row())
    @example([], "im,c,nan,0,0,1,1,,,")
    @example([], "im,c,1.5,0,0,1,1,,,")
    @example([], "im,c,-0.5,0,0,1,1,,,")
    @example([], ",c,0.5,0,0,1,1,,,")
    @example([], "im,,0.5,0,0,1,1,,,")
    @example([], "im,c,0.5,nan,0,1,1,,,")
    @example([], "im,c,0.5,-inf,0,1,1,,,")
    @example([], "im,c,0.5,0,-1e999,1,1,,,")
    @example([], "im,c,0.5,0,0,1e999,1,,,")
    @example([], "im,c,0.5,0,0,1,inf,,,")
    @example([], "im,c,0.5,-1e308,-1e308,1e308,1e308,,,")
    @example([], "im,c,0.5,2,0,1,1,,,")
    @example([], "im,c,abc,2,0,1,1,,,")
    @example([], ",c,abc,0,0,1,1,,,")
    @example([], "im,c,0.5,2,0,1,1,2,,1 3")
    @example([], "im,c,0.5,0,0,1,1,2,2,1 x 2")
    def test_any_prediction_row(self, valid, row):
        data = as_file(PREDICTIONS_HEADER, [*valid, row])
        assert_same_outcome(fileio.parse_predictions, parse_predictions_ref, data)

    @given(st.lists(valid_ground_truth_row(), max_size=3), any_ground_truth_row())
    @example([], ",c,0,0,1,1,,,")
    @example([], "im,,0,0,1,1,,,")
    @example([], "im,c,nan,0,1,1,,,")
    @example([], "im,c,-1e999,0,1,1,,,")
    @example([], "im,c,0,-inf,1,1,,,")
    @example([], "im,c,0,0,1e999,1,,,")
    @example([], "im,c,0,0,1,inf,,,")
    @example([], "im,c,1e308,1e308,1e308,1e308,,,")
    @example([], "im,c,0,2,1,1,,,")
    @example([], ",c,0,2,1,1,,,")
    @example([], "im,c,0,2,1,x,,,")
    @example([], "im,c,0,0,1,1,2,2,1 3 y")
    def test_any_ground_truth_row(self, valid, row):
        data = as_file(GROUND_TRUTH_HEADER, [*valid, row])
        assert_same_outcome(parse_ground_truth_rows, parse_ground_truth_ref, data)

    def test_inverted_box_reported_before_bad_score(self):
        data = as_file(PREDICTIONS_HEADER, ["im,c,abc,2.0,0.0,1.0,1.0,,,"])
        error = outcome(fileio.parse_predictions, data)
        assert error == ("ParseError", "line 2: box corners are inverted: (2.0, 0.0, 1.0, 1.0)")
        assert error == outcome(parse_predictions_ref, data)


# -- evaluation equivalence --------------------------------------------------------


def random_world(seed: int):
    """Predictions, ground truth, verification and hierarchy over a few images
    and up to eight categories, with negatives and unverified pairs.  Boxes
    sit on a coarse grid and scores repeat, so overlaps and scores tie often
    and the order of each category's records decides matches."""
    rng = np.random.default_rng(seed)
    n_categories = int(rng.integers(1, 9))
    categories = [f"c{i}" for i in range(n_categories)]
    images = [f"im{i}" for i in range(int(rng.integers(1, 5)))]
    edges = [
        (categories[i], categories[j])
        for i in range(n_categories)
        for j in range(i + 1, n_categories)
        if rng.uniform() < 0.2
    ]
    hierarchy = Hierarchy(edges)

    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    def grid_box():
        x, y = float(rng.integers(0, 7)), float(rng.integers(0, 3))
        return Box(x, y, x + 10.0, y + 10.0)

    gts = [
        GroundTruthInstance(pick(images), pick(categories), grid_box())
        for _ in range(int(rng.integers(0, 12)))
    ]
    predictions = []
    for _ in range(int(rng.integers(0, 30))):
        if gts and rng.uniform() < 0.7:
            near = pick(gts)
            image_id, category_id = near.image_id, near.category_id
        else:
            image_id, category_id = pick(images), pick(categories)
        score = float(rng.choice([0.25, 0.5, rng.uniform()]))
        predictions.append(Prediction(image_id, category_id, score, grid_box()))
    entries = {(g.image_id, g.category_id): POSITIVE for g in gts}
    for image_id in images:
        for category_id in categories:
            if (image_id, category_id) not in entries and rng.uniform() < 0.3:
                entries[(image_id, category_id)] = NEGATIVE
    return predictions, gts, VerificationTable(entries), hierarchy


class TestEvaluationMatchesReference:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=150)
    def test_random_worlds(self, seed):
        predictions, gts, table, hierarchy = random_world(seed)
        assert outcome(evaluate, predictions, gts, table, hierarchy) == outcome(
            evaluate_ref, predictions, gts, table, hierarchy
        )

    @given(st.integers(0, 2**32 - 1))
    def test_expand_verification(self, seed):
        _, _, table, hierarchy = random_world(seed)
        ours = outcome(expand_verification, table, hierarchy)
        reference = outcome(expand_verification_ref, table, hierarchy)
        if isinstance(reference, VerificationTable):
            assert ours.entries == reference.entries
        else:
            assert ours == reference


# -- linear cost -------------------------------------------------------------------


class CountingHierarchy(Hierarchy):
    def __init__(self, edges):
        super().__init__(edges)
        self.calls = Counter()

    def ancestors(self, category):
        self.calls["ancestors", category] += 1
        return super().ancestors(category)

    def descendants(self, category):
        self.calls["descendants", category] += 1
        return super().descendants(category)


def test_expand_verification_walks_each_closure_once():
    edges = [("cat", "mammal"), ("dog", "mammal"), ("mammal", "animal"), ("trout", "fish")]
    entries = {}
    for i in range(20):
        entries[(f"im{i}", "cat" if i % 2 else "dog")] = POSITIVE
        entries[(f"im{i}", "fish" if i % 3 else "trout")] = NEGATIVE
    table = VerificationTable(entries)
    hierarchy = CountingHierarchy(edges)
    expanded = expand_verification(table, hierarchy)
    assert expanded.entries == expand_verification_ref(table, Hierarchy(edges)).entries
    assert set(hierarchy.calls) == {
        ("ancestors", "cat"),
        ("ancestors", "dog"),
        ("descendants", "fish"),
        ("descendants", "trout"),
    }
    assert max(hierarchy.calls.values()) == 1


def test_evaluate_time_is_linear():
    def world(n_categories: int):
        rng = np.random.default_rng(5)
        categories = [f"c{i}" for i in range(n_categories)]
        gts = [
            GroundTruthInstance(f"im{i}", categories[i % n_categories], random_box(rng))
            for i in range(2 * n_categories)
        ]
        predictions = [
            Prediction(g.image_id, g.category_id, float(rng.uniform()), random_box(rng))
            for g in gts
        ]
        table = VerificationTable({(g.image_id, g.category_id): POSITIVE for g in gts})
        return predictions, gts, table, Hierarchy(())

    # Twice the categories and twice the rows: about 2x when each category
    # costs its own rows, 4x when each category scans every row.
    small, large = world(500), world(1000)
    assert size_ratio(lambda args: evaluate(*args), small, large) <= 2.5


def stratified_table(n_strata: int, members: int = 4) -> PredictionTable:
    """n_strata (image, category) strata of `members` rows each, jittered
    copies of one box, so that greedy overlap resolution takes several steps
    within a stratum.  Ten categories per image: twice the strata is twice
    the images, and each category holds a tenth of the rows."""
    rng = np.random.default_rng(12)
    n = n_strata * members
    strata = np.repeat(np.arange(n_strata), members).tolist()
    corners = rng.uniform(0.0, 500.0, (n_strata, 2)).repeat(members, axis=0)
    corners += rng.uniform(0.0, 20.0, (n, 2))
    boxes = np.hstack([corners, corners + rng.uniform(20.0, 60.0, (n, 2))])
    images, image_codes = _intern([f"im{s // 10}" for s in strata])
    categories, category_codes = _intern([f"c{s % 10}" for s in strata])
    return PredictionTable(
        images, categories, image_codes, category_codes, rng.uniform(0.01, 0.99, n), boxes, [None] * n
    )


# Twice the rows in twice the strata: about 2x when each stratum costs only
# its own rows, 4x when each stratum scans every row.


def test_nms_time_is_linear():
    small, large = stratified_table(10000), stratified_table(20000)
    assert size_ratio(lambda table: nms(table, 0.5), small, large) <= 2.5


def test_group_predictions_time_is_linear():
    small, large = stratified_table(2500), stratified_table(5000)
    assert size_ratio(lambda table: group_predictions(table, 0.5), small, large) <= 2.5


def test_ensemble_time_is_linear():
    small, large = stratified_table(10000), stratified_table(20000)
    ratio = size_ratio(lambda table: ensemble([table, table], 0.5), small, large)
    assert ratio <= 2.5


def test_trim_to_budget_time_is_linear():
    # Half of each file's bytes must go, so about half the rows leave.
    small, large = stratified_table(2500), stratified_table(5000)
    budgets = {id(table): serialized_size(table) // 2 for table in (small, large)}
    ratio = size_ratio(lambda table: trim_to_budget(table, budgets[id(table)]), small, large)
    assert ratio <= 2.5
