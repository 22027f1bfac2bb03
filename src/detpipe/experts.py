"""Category-subset construction for expert models.

Experts are trained on a slice of the category space, chosen either by
occurrence rank (rare categories grouped with similarly rare neighbours) or
by clustering category embeddings.  This module builds those groups, filters
datasets down to a group for expert training, and restricts prediction files
to the categories an expert is responsible for.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .records import (
    CategoryStats,
    EmbeddingTable,
    GroundTruthInstance,
    Prediction,
    VerificationTable,
)
from .table import (
    GroundTruth,
    GroundTruthTable,
    PredictionTable,
    Predictions,
    _firsts,
    as_table,
    select,
)
from .training import SplitMix64

__all__ = [
    "RANK_SPLIT",
    "EMBEDDING_CLUSTER",
    "CategoryGroup",
    "rarity_ranking",
    "split_by_rank",
    "split_by_embedding",
    "filter_for_expert",
    "restrict_predictions",
]

RANK_SPLIT = "rank_split"
EMBEDDING_CLUSTER = "embedding_cluster"


@dataclass(frozen=True)
class CategoryGroup:
    """The categories one expert model is responsible for."""

    categories: tuple[str, ...]
    provenance: str = "file"
    rank_range: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        categories = tuple(self.categories)
        if not categories:
            raise ValidationError("a category group must not be empty")
        if len(set(categories)) != len(categories):
            raise ValidationError("a category group must not contain duplicates")
        object.__setattr__(self, "categories", categories)
        if self.rank_range is not None:
            start, end = self.rank_range
            if end - start != len(categories):
                raise ValidationError(
                    f"rank range {self.rank_range} does not match group size "
                    f"{len(categories)}"
                )
            object.__setattr__(self, "rank_range", (int(start), int(end)))

    def __contains__(self, category_id: str) -> bool:
        return category_id in self.categories

    def __len__(self) -> int:
        return len(self.categories)


def rarity_ranking(stats: CategoryStats) -> list[str]:
    """Categories ordered rarest first; count ties break lexicographically."""
    if not len(stats):
        raise ValidationError("category stats must not be empty")
    return [c for c, _ in sorted(stats.items(), key=lambda kv: (kv[1], kv[0]))]


def split_by_rank(
    ranking: Sequence[str],
    start_rank: int,
    end_rank: int,
    num_experts: int,
) -> list[CategoryGroup]:
    """Split the rank window [start_rank, end_rank) into contiguous groups.

    Group sizes differ by at most one; when the window does not divide
    evenly, the earliest (rarest) groups take the extra category.
    """
    if not 0 <= start_rank <= end_rank <= len(ranking):
        raise ValidationError(
            f"rank window [{start_rank}, {end_rank}) is invalid for a ranking "
            f"of {len(ranking)} categories"
        )
    window = end_rank - start_rank
    if num_experts < 1:
        raise ValidationError(f"num_experts must be >= 1, got {num_experts}")
    if num_experts > window:
        raise ValidationError(
            f"cannot split {window} categories into {num_experts} groups"
        )
    base, remainder = divmod(window, num_experts)
    groups: list[CategoryGroup] = []
    cursor = start_rank
    for g in range(num_experts):
        size = base + (1 if g < remainder else 0)
        groups.append(
            CategoryGroup(
                categories=tuple(ranking[cursor : cursor + size]),
                provenance=RANK_SPLIT,
                rank_range=(cursor, cursor + size),
            )
        )
        cursor += size
    return groups


def _farthest_point_centers(points: np.ndarray, k: int, seed: int) -> list[int]:
    """Initial center indices: a seeded first pick, then repeatedly the point
    farthest from its nearest chosen center (ties to the smallest index)."""
    n = points.shape[0]
    rng = SplitMix64(seed)
    centers = [rng.below(n)]
    min_dist2 = np.sum((points - points[centers[0]]) ** 2, axis=1)
    while len(centers) < k:
        min_dist2[centers] = -np.inf
        nxt = int(np.argmax(min_dist2))
        centers.append(nxt)
        dist2 = np.sum((points - points[nxt]) ** 2, axis=1)
        min_dist2 = np.minimum(min_dist2, dist2)
    return centers


def split_by_embedding(
    table: EmbeddingTable, k: int, seed: int = 0
) -> list[CategoryGroup]:
    """Cluster categories by embedding similarity into k groups.

    Lloyd iteration (Euclidean distance, at most 100 rounds or until the
    assignment is stable) from farthest-point-seeded centers; an emptied
    cluster is repaired by taking the farthest member of the largest cluster.
    Deterministic given the seed; members are listed lexicographically.
    """
    categories = sorted(table)
    n = len(categories)
    if not 1 <= k <= n:
        raise ValidationError(f"k must be in [1, {n}], got {k}")
    points = np.stack([table[c] for c in categories]).astype(np.float64)
    center_indices = _farthest_point_centers(points, k, seed)
    centers = points[center_indices].copy()
    assignment = np.full(n, -1, dtype=np.int64)
    for _ in range(100):
        dist2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assignment = np.argmin(dist2, axis=1)
        for cluster in range(k):
            if np.any(new_assignment == cluster):
                continue
            sizes = np.bincount(new_assignment, minlength=k)
            largest = int(np.argmax(sizes))
            member_idx = np.flatnonzero(new_assignment == largest)
            spread = ((points[member_idx] - centers[largest]) ** 2).sum(axis=1)
            new_assignment[member_idx[int(np.argmax(spread))]] = cluster
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        for cluster in range(k):
            centers[cluster] = points[assignment == cluster].mean(axis=0)
    groups = []
    for cluster in range(k):
        members = [categories[i] for i in np.flatnonzero(assignment == cluster)]
        groups.append(
            CategoryGroup(categories=tuple(members), provenance=EMBEDDING_CLUSTER)
        )
    return groups


def filter_for_expert(
    gts: GroundTruth,
    verification: VerificationTable,
    group: CategoryGroup,
) -> tuple[list[GroundTruthInstance] | GroundTruthTable, VerificationTable, list[str]]:
    """Restrict a training set to an expert's categories.

    Annotations outside the group are dropped; images left with no annotation
    disappear entirely (first-occurrence order is kept for the image list);
    verification entries survive only for kept images and group categories.
    A ground-truth table gives a table and records a list of the caller's
    records.
    """
    table = as_table(gts, GroundTruthTable)
    kept = np.flatnonzero(_covered(table.category_ids, group.categories)[table.category_codes])
    image_codes = table.image_codes[kept]
    kept_images = list(map(table.image_ids.__getitem__, image_codes[_firsts(image_codes)].tolist()))
    kept_pairs = verification.take(
        np.flatnonzero(
            _covered(verification.image_ids, kept_images)[verification.image_codes]
            & _covered(verification.category_ids, group.categories)[verification.category_codes]
        )
    )
    return select(gts, kept), kept_pairs, kept_images


def _covered(vocabulary: Sequence[str], wanted: Sequence[str]) -> np.ndarray:
    """Whether each id of a vocabulary is wanted, indexed by its code."""
    wanted = set(wanted)
    return np.array([value in wanted for value in vocabulary], dtype=bool)


def _restricted_rows(table: PredictionTable, group: CategoryGroup) -> np.ndarray:
    return np.flatnonzero(_covered(table.category_ids, group.categories)[table.category_codes])


def restrict_predictions(
    predictions: Predictions, group: CategoryGroup
) -> list[Prediction] | PredictionTable:
    """Keep only predictions whose category the group covers; order
    preserved.  A table gives a table, rows a list."""
    return select(predictions, _restricted_rows(as_table(predictions), group))
