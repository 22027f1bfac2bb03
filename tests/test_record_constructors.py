"""The record constructors, checked against the validating dataclasses they
replaced.  Those converted and checked every field in ``__post_init__`` on
every construction; the constructors now store valid, well-typed fields after
a few comparisons and run the same checks on anything else.  The references
below keep the earlier ``__post_init__`` bodies as they were, but for two
later rules: a mask run, like a mask width or height, must be an integer,
and a mask's width times its height must not be above int64's maximum.
Last, the coded verification table is checked against a plain dict."""

import math
from dataclasses import dataclass, fields, replace

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from detpipe import (
    UNVERIFIED,
    BinaryMask,
    Box,
    GroundTruthInstance,
    Prediction,
    Roi,
    ValidationError,
    VerificationTable,
)
from detpipe.geometry import _check_dimension, _check_integer
from detpipe.records import _check_id

from oracles import verification_ref


# -- references ------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BoxRef:
    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        for name in ("x_min", "y_min", "x_max", "y_max"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValidationError(f"box coordinate {name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if self.x_max < self.x_min or self.y_max < self.y_min:
            raise ValidationError(
                f"box corners are inverted: "
                f"({self.x_min}, {self.y_min}, {self.x_max}, {self.y_max})"
            )


@dataclass(frozen=True, slots=True)
class BinaryMaskRef:
    width: int
    height: int
    runs: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "width", _check_dimension("mask width", self.width))
        object.__setattr__(self, "height", _check_dimension("mask height", self.height))
        if self.width * self.height > 2**63 - 1:
            raise ValidationError(
                f"mask width*height = {self.width * self.height} is above the int64 maximum"
            )
        runs = tuple(_check_integer("mask run", r) for r in self.runs)
        if not runs:
            raise ValidationError("mask runs must not be empty")
        if runs[0] < 0 or any(r < 1 for r in runs[1:]):
            raise ValidationError(f"mask runs after the first must be >= 1, got {runs}")
        total = sum(runs)
        if total != self.width * self.height:
            raise ValidationError(
                f"mask runs sum to {total}, expected width*height = {self.width * self.height}"
            )
        object.__setattr__(self, "runs", runs)


@dataclass(frozen=True, slots=True)
class PredictionRef:
    image_id: str
    category_id: str
    score: float
    box: object
    mask: object = None

    def __post_init__(self) -> None:
        _check_id("image_id", self.image_id)
        _check_id("category_id", self.category_id)
        score = float(self.score)
        if not 0.0 <= score <= 1.0:
            raise ValidationError(f"score must be in [0, 1], got {self.score!r}")
        object.__setattr__(self, "score", score)


@dataclass(frozen=True, slots=True)
class GroundTruthInstanceRef:
    image_id: str
    category_id: str
    box: object
    mask: object = None

    def __post_init__(self) -> None:
        _check_id("image_id", self.image_id)
        _check_id("category_id", self.category_id)


@dataclass(frozen=True, slots=True)
class RoiRef:
    box: object
    objectness: float | None = None

    def __post_init__(self) -> None:
        if self.objectness is not None:
            value = float(self.objectness)
            if not np.isfinite(value):
                raise ValidationError(f"objectness must be finite, got {self.objectness!r}")
            object.__setattr__(self, "objectness", value)


def construct(cls, kwargs):
    """Each stored field's type and repr, or the type and message of the error."""
    try:
        record = cls(**kwargs)
    except Exception as exc:  # noqa: BLE001 - conversions raise TypeError and others
        return type(exc).__name__, str(exc)
    values = [getattr(record, f.name) for f in fields(record)]
    return [(type(value), repr(value)) for value in values]


def assert_same(cls, reference, kwargs):
    ours, expected = construct(cls, kwargs), construct(reference, kwargs)
    assert ours == expected
    if isinstance(expected, list):
        record = cls(**kwargs)
        # Fields that need no conversion are stored as given.
        for name in ("image_id", "category_id", "box", "mask"):
            if name in kwargs:
                assert getattr(record, name) is kwargs[name]


# -- strategies --------------------------------------------------------------------


class Label(str):
    """A str subclass: a valid id, kept as given."""


FLOATISH = st.one_of(
    st.floats(),
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.sampled_from([1e308, -1e308, math.nan, math.inf, -math.inf, -0.0, 10**400]),
    st.sampled_from(["1.5", "x", None, "nan"]),
)
COORDINATE = st.one_of(st.floats(-1e3, 1e3), FLOATISH)
SCORE = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, -0.0, 0, 1]), FLOATISH)
ID = st.one_of(
    st.text(st.sampled_from("ab,\n\r"), max_size=3),
    st.text(max_size=3),
    st.text(min_size=1, max_size=3).map(Label),
    st.sampled_from([None, 1, b"im", ("im",)]),
)
DIMENSION = st.one_of(
    st.integers(-1, 4),
    st.sampled_from([True, 2.0, 2.5, np.int64(2), np.float64(3.0), "2", None]),
)
RUN = st.one_of(
    st.integers(-2, 4),
    st.sampled_from([1.0, 2.5, -0.5, True, np.int64(2), np.float64(1.0), "3"]),
)


@st.composite
def mask_arguments(draw):
    """Mostly valid masks, some with one field replaced."""
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    total = width * height
    cuts = sorted(draw(st.sets(st.integers(1, total - 1)))) if total > 1 else []
    runs = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
    if draw(st.booleans()):
        runs.insert(0, 0)
    kind = draw(st.sampled_from(["valid", "width", "height", "run", "runs"]))
    if kind == "width":
        width = draw(DIMENSION)
    elif kind == "height":
        height = draw(DIMENSION)
    elif kind == "run":
        runs[draw(st.integers(0, len(runs) - 1))] = draw(RUN)
    elif kind == "runs":
        runs = draw(st.lists(RUN, max_size=4))
    return {"width": width, "height": height, "runs": runs}


BOX = Box(0.0, 0.0, 1.0, 1.0)


# -- equivalence -------------------------------------------------------------------


class TestConstructorsMatchReference:
    @given(COORDINATE, COORDINATE, COORDINATE, COORDINATE)
    @example(1e308, 1e308, 1e308, 1e308)
    @example(-1e308, -1e308, 1e308, 1e308)
    @example(0, 0, 1, 1)
    @example(True, False, True, True)
    @example(np.float64(0.5), 0.0, 1.0, 1.0)
    @example(0.0, 0.0, math.nan, 1.0)
    @example(0.0, -math.inf, 1.0, 1.0)
    @example(2.0, 0.0, 1.0, 1.0)
    @example(0.0, 0.0, 1.0, "x")
    def test_box(self, x_min, y_min, x_max, y_max):
        kwargs = {"x_min": x_min, "y_min": y_min, "x_max": x_max, "y_max": y_max}
        assert_same(Box, BoxRef, kwargs)

    @given(mask_arguments())
    @example({"width": 2, "height": 2, "runs": [0, 4]})
    @example({"width": 2, "height": 2, "runs": [4]})
    @example({"width": 2, "height": 2, "runs": []})
    @example({"width": 2, "height": 2, "runs": [1, 0, 3]})
    @example({"width": 2, "height": 2, "runs": [-1, 5]})
    @example({"width": 2, "height": 2, "runs": [1.5, 2.5]})
    @example({"width": 2, "height": 2, "runs": [True, 3]})
    @example({"width": 2, "height": 2, "runs": [np.int64(1), 3.0]})
    @example({"width": True, "height": 1, "runs": [1]})
    @example({"width": 0, "height": "x", "runs": [0]})
    @example({"width": 2**62, "height": 2, "runs": [0, 2**63]})
    @example({"width": 2**63 - 1, "height": 1, "runs": [0, 2**63 - 1]})
    @example({"width": 10**21, "height": 1, "runs": [-1]})
    def test_binary_mask(self, kwargs):
        assert_same(BinaryMask, BinaryMaskRef, kwargs)

    @given(ID, ID, SCORE)
    @example("im", "c", 0.0)
    @example("im", "c", 1.0)
    @example("im", "c", 1)
    @example("im", "c", True)
    @example("im", "c", np.float64(0.5))
    @example("im", "c", math.nan)
    @example("im", "c", 1.0000000000000002)
    @example("", "c", 0.5)
    @example("im", "a,b", 0.5)
    @example("im\n", "c", 0.5)
    @example("im", "c\r", 0.5)
    @example(Label("im"), "c", 0.5)
    @example(1, "c", 0.5)
    @example("im", "c", "0.5")
    def test_prediction(self, image_id, category_id, score):
        for mask in (None, BinaryMask(1, 1, (0, 1))):
            kwargs = {
                "image_id": image_id,
                "category_id": category_id,
                "score": score,
                "box": BOX,
                "mask": mask,
            }
            assert_same(Prediction, PredictionRef, kwargs)

    @given(ID, ID)
    @example("im", "c")
    @example("", "c")
    @example("im", "")
    @example("a,b", "c")
    @example("im", "c\n")
    @example(Label("im"), Label("c"))
    @example(None, "c")
    def test_ground_truth_instance(self, image_id, category_id):
        kwargs = {"image_id": image_id, "category_id": category_id, "box": BOX, "mask": None}
        assert_same(GroundTruthInstance, GroundTruthInstanceRef, kwargs)

    @given(st.one_of(st.none(), FLOATISH))
    @example(None)
    @example(0.5)
    @example(3)
    @example(np.float64(-2.0))
    @example(math.inf)
    @example(math.nan)
    def test_roi(self, objectness):
        assert_same(Roi, RoiRef, {"box": BOX, "objectness": objectness})


def test_defaults_and_replace():
    prediction = Prediction("im", "c", 0.5, BOX)
    assert prediction.mask is None
    assert GroundTruthInstance("im", "c", BOX).mask is None
    assert Roi(BOX).objectness is None
    # replace() passes every field to the constructor, which checks it.
    assert replace(prediction, score=1) == Prediction("im", "c", 1.0, BOX)
    assert type(replace(prediction, score=1).score) is float
    try:
        replace(prediction, category_id="a,b")
    except ValidationError as exc:
        assert str(exc) == "category_id must not contain commas or newlines: 'a,b'"
    else:
        raise AssertionError("replace() skipped the id check")


# -- the verification table against a plain dict ---------------------------------

VERIFICATION_IDS = ["a", "b", "é", "a b", "", "a,b", "a\nb", "a\rb", 3, None]
SIGNS = [1, -1] * 6 + [0, 2, True, 1.0, -1.0, np.int8(1), np.int64(-1), "1", None]
# Ids a lookup may ask for: the valid ones above, and ones no table holds.
QUERY_IDS = ["a", "b", "é", "a b", "zz", "q"]


@given(
    st.dictionaries(
        st.tuples(
            st.sampled_from(["a", "b", "é", "a b"] * 8 + VERIFICATION_IDS),
            st.sampled_from(["a", "b", "é", "a b"] * 8 + VERIFICATION_IDS),
        ),
        st.sampled_from(SIGNS),
        max_size=8,
    ),
    st.data(),
)
@example({}, None)
@example({("a", "b"): 1, ("b", "a"): -1}, None)
@example({("a", "b"): 1, ("a,b", "a"): 0}, None)
def test_verification_table_is_a_checked_dict(entries, data):
    expected, message = verification_ref(entries)
    try:
        table = VerificationTable(entries)
    except ValidationError as exc:
        assert str(exc) == message
        return
    assert message is None
    assert list(table.entries.items()) == list(expected.items())
    assert all(type(sign) is int for sign in table.entries.values())
    assert len(table) == len(expected)
    assert table == VerificationTable(dict(reversed(list(expected.items()))))
    for key, sign in expected.items():
        assert table != VerificationTable({**expected, key: -sign})

    # Every pair over ids in and out of the table's vocabularies, one by one
    # and in one batch, over query vocabularies in another order.
    image_ids, category_ids = QUERY_IDS, QUERY_IDS[::-1]
    image_codes, category_codes = np.divmod(np.arange(len(QUERY_IDS) ** 2), len(QUERY_IDS))
    pairs = [(image_ids[i], category_ids[c]) for i, c in zip(image_codes, category_codes)]
    statuses = table.statuses(image_ids, image_codes, category_ids, category_codes)
    assert statuses.dtype == np.int8
    assert statuses.tolist() == [expected.get(pair, UNVERIFIED) for pair in pairs]
    assert [table.status(*pair) for pair in pairs] == [expected.get(pair, UNVERIFIED) for pair in pairs]
    if data is None:
        return

    # take: the entries at the indices, in that order.
    keys = list(expected)
    indices = data.draw(st.permutations(range(len(keys))))[: data.draw(st.integers(0, len(keys)))]
    taken = table.take(np.array(indices, dtype=np.int64))
    kept = {keys[i]: expected[keys[i]] for i in indices}
    assert list(taken.entries.items()) == list(kept.items())
    assert len(taken) == len(kept)
    assert taken.statuses(image_ids, image_codes, category_ids, category_codes).tolist() == [
        kept.get(pair, UNVERIFIED) for pair in pairs
    ]
