import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from detpipe import (
    Assignment,
    Box,
    GroundTruthInstance,
    Hierarchy,
    LabelMatrix,
    ValidationError,
    VerificationTable,
    assign_rois,
    build_label_matrix,
    classification_loss,
    expand_verification,
)
from detpipe.geometry import _check_iou_threshold, box_iou

from generators import HUGE_BOX, overlap_boxes, random_box
from oracles import iou_ref, loss_ref
from timing import median_ratio


def reachable(start, edges):
    """Transitive closure over a raw edge dict, independent of Hierarchy."""
    out = set()
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for nxt in edges.get(node, ()):  # pragma: no branch
            if nxt not in out:
                out.add(nxt)
                frontier.append(nxt)
    return out


CHAIN = Hierarchy([("cat", "mammal"), ("mammal", "animal")])
CHAIN_UP = {"cat": {"mammal"}, "mammal": {"animal"}}
CHAIN_DOWN = {"animal": {"mammal"}, "mammal": {"cat"}}


class TestExpandVerification:
    def test_empty_hierarchy_is_identity(self):
        table = VerificationTable({("im1", "c1"): 1, ("im2", "c2"): -1})
        assert expand_verification(table, Hierarchy(())) == table

    def test_positive_expands_to_ancestors(self):
        table = VerificationTable({("im1", "cat"): 1})
        expanded = expand_verification(table, CHAIN)
        expected = {"cat"} | reachable("cat", CHAIN_UP)
        assert {c for (_, c) in expanded.entries} == expected
        assert all(sign == 1 for sign in expanded.entries.values())

    def test_negative_expands_to_descendants(self):
        table = VerificationTable({("im1", "animal"): -1})
        expanded = expand_verification(table, CHAIN)
        expected = {"animal"} | reachable("animal", CHAIN_DOWN)
        assert {c for (_, c) in expanded.entries} == expected
        assert all(sign == -1 for sign in expanded.entries.values())

    def test_single_edge_examples(self):
        edge = Hierarchy([("cat", "animal")])
        up = expand_verification(VerificationTable({("im1", "cat"): 1}), edge)
        assert up.status("im1", "animal") == 1
        down = expand_verification(VerificationTable({("im1", "animal"): -1}), edge)
        assert down.status("im1", "cat") == -1

    def test_conflict_is_reported(self):
        table = VerificationTable({("im1", "cat"): 1, ("im1", "animal"): -1})
        with pytest.raises(ValidationError) as info:
            expand_verification(table, CHAIN)
        assert "cat" in str(info.value)

    def test_idempotent_and_monotone_on_random_dags(self):
        rng = np.random.default_rng(11)
        nodes = [f"n{i}" for i in range(8)]
        for _ in range(30):
            edges = [
                (nodes[i], nodes[j])
                for i in range(8)
                for j in range(i + 1, 8)
                if rng.uniform() < 0.2
            ]
            hierarchy = Hierarchy(edges)
            entries = {}
            for node in nodes:
                draw = rng.uniform()
                if draw < 0.25:
                    entries[("im", node)] = 1
                elif draw < 0.35:
                    entries[("im", node)] = -1
            table = VerificationTable(entries)
            try:
                expanded = expand_verification(table, hierarchy)
            except ValidationError:
                continue  # random positives/negatives can genuinely conflict
            assert expand_verification(expanded, hierarchy) == expanded
            for key, sign in table.items():
                assert expanded.entries[key] == sign


NODES = [f"n{i}" for i in range(5)]
# Edges run from a lower to a higher node, so every hierarchy drawn is acyclic.
EDGES = st.lists(
    st.sampled_from([(a, b) for i, a in enumerate(NODES) for b in NODES[i + 1 :]]),
    unique=True,
    max_size=6,
)
ENTRIES = st.dictionaries(
    st.tuples(st.sampled_from(["im0", "im1", "im2"]), st.sampled_from(NODES)),
    st.sampled_from([1, -1]),
    max_size=10,
)


def closure_or_conflict(table, hierarchy):
    """expand_verification's result, or the message of the conflict it raises."""
    try:
        return expand_verification(table, hierarchy)
    except ValidationError as exc:
        return str(exc)


class TestKeptClosure:
    """A table keeps its closure over the hierarchy it was last closed over."""

    @given(ENTRIES, EDGES)
    def test_a_repeat_or_an_equal_hierarchy_gets_the_same_closure(self, entries, edges):
        table = VerificationTable(entries)
        first = closure_or_conflict(table, Hierarchy(edges))
        again = closure_or_conflict(table, Hierarchy(edges))
        equal = closure_or_conflict(table, Hierarchy(reversed(edges)))
        if isinstance(first, str):
            assert again == equal == first
        else:
            assert again is first and equal is first

    @given(ENTRIES, EDGES, EDGES)
    def test_another_hierarchy_gets_a_fresh_closure(self, entries, edges, other_edges):
        assume(Hierarchy(edges) != Hierarchy(other_edges))
        table = VerificationTable(entries)
        first = closure_or_conflict(table, Hierarchy(edges))
        other = closure_or_conflict(table, Hierarchy(other_edges))
        if not isinstance(first, str):
            assert other is not first
        assert other == closure_or_conflict(VerificationTable(entries), Hierarchy(other_edges))

    @given(ENTRIES, EDGES)
    def test_a_conflicting_table_raises_on_every_call(self, entries, edges):
        # n0 is a kind of n1; im9 is verified an n0 and not an n1.
        hierarchy = Hierarchy([*edges, ("n0", "n1")])
        table = VerificationTable({**entries, ("im9", "n0"): 1, ("im9", "n1"): -1})
        messages = []
        for _ in range(3):
            with pytest.raises(ValidationError) as info:
                expand_verification(table, hierarchy)
            messages.append(str(info.value))
        assert messages[0].startswith("hierarchy expansion produces conflicting verifications:")
        assert messages == [messages[0]] * 3
        assert table._closure is None

    @given(ENTRIES, EDGES)
    def test_new_tables_start_without_a_closure(self, entries, edges):
        table = VerificationTable(entries)
        columns = VerificationTable.from_columns(
            table.image_ids, table.category_ids, table.image_codes, table.category_codes,
            table.signs,
        )
        assert table._closure is None and columns._closure is None
        closure = closure_or_conflict(table, Hierarchy(edges))
        assert table.take(np.arange(len(table)))._closure is None
        if not isinstance(closure, str):
            assert closure._closure is None

    @given(ENTRIES, EDGES)
    def test_the_closure_dies_with_its_table_without_the_collector(self, entries, edges):
        # The closure refers to neither itself nor its table, so reference
        # counting frees it.  The table type takes no weak references; the
        # closure's own sign column stands in for it.
        table = VerificationTable(entries)
        gc.disable()
        try:
            closure = closure_or_conflict(table, Hierarchy(edges))
            assume(not isinstance(closure, str))
            closure.status("im0", "n0")
            signs = weakref.ref(closure.signs)
            del closure
            assert signs() is not None
            del table
            assert signs() is None
        finally:
            gc.enable()


def assign_rois_loop(
    rois,
    gts,
    iou_threshold: float = 0.5,
) -> Assignment:
    """assign_rois as a loop over (RoI, ground truth) pairs; the body is the
    one it had before the loop became geometry._best_overlaps."""
    _check_iou_threshold(iou_threshold)
    gt_indices: list[int | None] = []
    ious: list[float] = []
    for roi in rois:
        best_index: int | None = None
        best_iou = 0.0
        for index, gt in enumerate(gts):
            iou = box_iou(roi, gt.box)
            if iou > best_iou:
                best_iou = iou
                best_index = index
        if best_index is not None and best_iou >= iou_threshold:
            gt_indices.append(best_index)
            ious.append(best_iou)
        else:
            gt_indices.append(None)
            ious.append(best_iou)
    return Assignment(tuple(gt_indices), tuple(ious))


# Its area overflows too, and its IoU with HUGE_BOX is nan.
HALF_HUGE = Box(-1e308, 0.0, 1e308, 1e308)


class TestAssignRois:
    @given(
        st.lists(overlap_boxes(), max_size=12),
        st.lists(overlap_boxes(), max_size=6),
        st.one_of(st.sampled_from([0.25, 0.5, 1.0]), st.floats(0.0, 1.0, exclude_min=True)),
    )
    @example([Box(0, 0, 2, 2)], [Box(1, 0, 3, 2), Box(-1, 0, 1, 2)], 0.25)  # tied IoUs
    @example([Box(1, 1, 1, 1), Box(0, 0, 1, 1)], [Box(1, 1, 1, 1)], 0.5)  # zero area
    @example([Box(0, 0, 1, 1)], [Box(1, 0, 2, 1), Box(0, 1, 1, 2)], 0.5)  # touching
    @example([Box(0, 0, 1, 1), HUGE_BOX], [], 0.5)
    @example(
        [HUGE_BOX, HALF_HUGE, Box(0, 0, 1, 1)], [HUGE_BOX, Box(0, 0, 1, 1), HALF_HUGE], 0.5
    )
    def test_matches_the_pair_loop(self, rois, gt_boxes, iou_threshold):
        gts = [GroundTruthInstance("im1", f"c{i}", box) for i, box in enumerate(gt_boxes)]
        ours = assign_rois(rois, gts, iou_threshold)
        reference = assign_rois_loop(rois, gts, iou_threshold)
        assert ours.gt_indices == reference.gt_indices
        assert list(map(float.hex, ours.ious)) == list(map(float.hex, reference.ious))

    def test_memory_grows_with_rois_not_pairs(self):
        # One float64 matrix over these 16000 x 200 pairs alone is 25.6 MB.
        rng = np.random.default_rng(5)
        rois = [random_box(rng, 1000.0) for _ in range(16000)]
        gts = [GroundTruthInstance("im1", "c1", random_box(rng, 1000.0)) for _ in range(200)]
        tracemalloc.start()
        try:
            assignment = assign_rois(rois, gts, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < sum(i is not None for i in assignment.gt_indices) < len(rois)
        assert peak <= 8_000_000

    def test_faster_than_the_pair_loop(self):
        rng = np.random.default_rng(6)
        rois = [random_box(rng, 1000.0) for _ in range(2000)]
        gts = [GroundTruthInstance("im1", "c1", random_box(rng, 1000.0)) for _ in range(20)]

        ratio = median_ratio(
            lambda: assign_rois_loop(rois, gts, 0.5), lambda: assign_rois(rois, gts, 0.5), pairs=5
        )
        assert ratio >= 5

    def test_no_ground_truth_all_background(self):
        assignment = assign_rois([Box(0, 0, 1, 1), Box(2, 2, 3, 3)], [], 0.5)
        assert assignment.gt_indices == (None, None)

    def test_identity_box_assigned(self):
        gt = GroundTruthInstance("im1", "c1", Box(0, 0, 10, 10))
        assignment = assign_rois([Box(0, 0, 10, 10)], [gt], 0.5)
        assert assignment.gt_indices == (0,)
        assert assignment.ious == (1.0,)

    def test_best_iou_wins(self):
        gts = [
            GroundTruthInstance("im1", "c1", Box(1, 1, 3, 3)),
            GroundTruthInstance("im1", "c2", Box(0, 0, 2, 3)),
        ]
        roi = Box(0, 0, 2, 2)
        # independent IoU table
        table = [
            iou_ref((0, 0, 2, 2), (1, 1, 3, 3)),
            iou_ref((0, 0, 2, 2), (0, 0, 2, 3)),
        ]
        assert table == pytest.approx([1 / 7, 2 / 3])
        assignment = assign_rois([roi], gts, 0.5)
        assert assignment.gt_indices == (1,)
        assert assignment.ious[0] == pytest.approx(2 / 3)

    def test_below_threshold_is_background(self):
        gt = GroundTruthInstance("im1", "c1", Box(1, 1, 3, 3))
        assignment = assign_rois([Box(0, 0, 2, 2)], [gt], 0.5)
        assert assignment.gt_indices == (None,)

    def test_tie_breaks_to_smallest_index(self):
        shared = Box(0, 0, 4, 4)
        gts = [
            GroundTruthInstance("im1", "c1", shared),
            GroundTruthInstance("im1", "c2", shared),
        ]
        assignment = assign_rois([shared], gts, 0.5)
        assert assignment.gt_indices == (0,)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        gts = []
        for i in range(4):
            x0, y0 = rng.uniform(0, 50, 2)
            gts.append(
                GroundTruthInstance("im1", "c1", Box(x0, y0, x0 + 20, y0 + 20))
            )
        rois = []
        for _ in range(12):
            x0, y0 = rng.uniform(0, 50, 2)
            rois.append(Box(x0, y0, x0 + 20, y0 + 20))
        base = assign_rois(rois, gts, 0.5)
        perm = list(rng.permutation(len(rois)))
        shuffled = assign_rois([rois[i] for i in perm], gts, 0.5)
        assert tuple(shuffled.gt_indices) == tuple(base.gt_indices[i] for i in perm)

    def test_threshold_domain(self):
        with pytest.raises(ValidationError):
            assign_rois([], [], 0.0)
        with pytest.raises(ValidationError):
            assign_rois([], [], 1.5)


def three_category_setup(assigned):
    """Categories A (positive), B (negative), C (unverified)."""
    verification = VerificationTable({("im1", "A"): 1, ("im1", "B"): -1})
    gts = [GroundTruthInstance("im1", "A", Box(0, 0, 10, 10))]
    gt_indices = (0,) if assigned else (None,)
    assignment = Assignment(gt_indices, (1.0 if assigned else 0.0,))
    return assignment, gts, verification


class TestBuildLabelMatrix:
    def test_all_unverified_background_row_is_zero(self):
        assignment = Assignment((None,), (0.0,))
        matrix = build_label_matrix(
            assignment, [], VerificationTable({}), "im1", ("A", "B", "C")
        )
        assert matrix.values.tolist() == [[0, 0, 0]]

    def test_assigned_row(self):
        assignment, gts, verification = three_category_setup(assigned=True)
        matrix = build_label_matrix(assignment, gts, verification, "im1", ("A", "B", "C"))
        assert matrix.values.tolist() == [[1, -1, 0]]

    def test_background_row(self):
        assignment, gts, verification = three_category_setup(assigned=False)
        matrix = build_label_matrix(assignment, gts, verification, "im1", ("A", "B", "C"))
        assert matrix.values.tolist() == [[-1, -1, 0]]

    def test_gt_category_must_be_positively_verified(self):
        assignment = Assignment((0,), (1.0,))
        gts = [GroundTruthInstance("im1", "B", Box(0, 0, 10, 10))]
        verification = VerificationTable({("im1", "B"): -1})
        with pytest.raises(ValidationError) as info:
            build_label_matrix(assignment, gts, verification, "im1", ("A", "B"))
        assert "B" in str(info.value) and "im1" in str(info.value)

    def test_wrong_image_rejected(self):
        assignment = Assignment((None,), (0.0,))
        gts = [GroundTruthInstance("im2", "A", Box(0, 0, 1, 1))]
        with pytest.raises(ValidationError):
            build_label_matrix(
                assignment, gts, VerificationTable({("im2", "A"): 1}), "im1", ("A",)
            )

    def test_assigned_category_must_be_listed(self):
        assignment = Assignment((0,), (1.0,))
        gts = [GroundTruthInstance("im1", "A", Box(0, 0, 1, 1))]
        verification = VerificationTable({("im1", "A"): 1})
        with pytest.raises(ValidationError):
            build_label_matrix(assignment, gts, verification, "im1", ("B",))

    def test_at_most_one_positive_per_row(self):
        with pytest.raises(ValidationError):
            LabelMatrix(np.array([[1, 1]], dtype=np.int8), ("A", "B"))


class TestClassificationLoss:
    def test_all_ignored_is_zero(self):
        logits = np.array([[5.0, -5.0], [0.0, 2.0]])
        labels = np.zeros((2, 2), dtype=np.int8)
        assert classification_loss(logits, labels) == 0.0

    def test_zero_logit_positive_label_is_ln2(self):
        value = classification_loss(np.array([[0.0]]), np.array([[1]]))
        assert value == pytest.approx(math.log(2), abs=1e-15)

    def test_matches_extended_precision_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            logits = rng.uniform(-50, 50, size=(4, 3))
            labels = rng.integers(-1, 2, size=(4, 3))
            ours = classification_loss(logits, labels)
            assert ours == pytest.approx(loss_ref(logits, labels), abs=1e-9)

    def test_ignore_positions_are_bit_exact(self):
        rng = np.random.default_rng(6)
        logits = rng.uniform(-50, 50, size=(5, 4))
        labels = rng.integers(-1, 2, size=(5, 4))
        flipped = logits.copy()
        flipped[labels == 0] *= -1.0
        flipped[labels == 0] += 17.5
        assert classification_loss(logits, labels) == classification_loss(flipped, labels)

    def test_extreme_logits_are_finite(self):
        logits = np.array([[50.0, -50.0], [700.0, -700.0]])
        labels = np.array([[1, -1], [-1, 1]])
        value = classification_loss(logits, labels)
        assert math.isfinite(value)
        assert value > 0.0

    def test_loss_is_nonnegative_and_positive_when_labeled(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            logits = rng.uniform(-10, 10, size=(3, 3))
            labels = rng.integers(-1, 2, size=(3, 3))
            value = classification_loss(logits, labels)
            assert value >= 0.0
            if np.any(labels != 0):
                assert value > 0.0

    def test_nonfinite_logits_rejected(self):
        with pytest.raises(ValidationError):
            classification_loss(np.array([[np.nan]]), np.array([[1]]))
        with pytest.raises(ValidationError):
            classification_loss(np.array([[np.inf]]), np.array([[-1]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            classification_loss(np.zeros((2, 2)), np.zeros((2, 3), dtype=np.int8))

    def test_accepts_label_matrix(self):
        matrix = LabelMatrix(np.array([[1, -1]], dtype=np.int8), ("A", "B"))
        value = classification_loss(np.array([[0.0, 0.0]]), matrix)
        assert value == pytest.approx(2 * math.log(2), abs=1e-15)
