"""Record types shared across the pipeline.

Predictions and ground-truth instances are the payload records; the side
tables (verification, hierarchy, occurrence stats, RoI pools, embeddings)
describe the federated dataset they live in.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from math import isfinite

import numpy as np

from .errors import ValidationError
from .geometry import BinaryMask, Box

__all__ = [
    "POSITIVE",
    "NEGATIVE",
    "UNVERIFIED",
    "DEFAULT_POOL_LIMIT",
    "Prediction",
    "GroundTruthInstance",
    "VerificationTable",
    "Hierarchy",
    "CategoryStats",
    "Roi",
    "RoiPool",
    "EmbeddingTable",
]

POSITIVE = 1
NEGATIVE = -1
UNVERIFIED = 0

# Predictions, ground truths and RoIs are frozen, so their constructors set
# fields through object.__setattr__, bound once here to save a lookup per field.
_set = object.__setattr__

# Per-image RoI pool cap; pools larger than this are rejected at parse time.
DEFAULT_POOL_LIMIT = 16000


def _is_id(value: object) -> bool:
    """The id rule: a non-empty string with no comma, LF or CR, since ids
    end up as CSV fields."""
    return (
        isinstance(value, str)
        and value != ""
        and "," not in value
        and "\n" not in value
        and "\r" not in value
    )


def _check_id(name: str, value: str) -> None:
    if not _is_id(value):
        if not isinstance(value, str) or not value:
            raise ValidationError(f"{name} must be a non-empty string, got {value!r}")
        raise ValidationError(f"{name} must not contain commas or newlines: {value!r}")


@dataclass(frozen=True, slots=True, init=False)
class Prediction:
    """One detection: where (box, optional mask), what (category), how sure (score)."""

    image_id: str
    category_id: str
    score: float
    box: Box
    mask: BinaryMask | None = None

    def __init__(
        self,
        image_id: str,
        category_id: str,
        score: float,
        box: Box,
        mask: BinaryMask | None = None,
    ) -> None:
        # Plain ids and a float score in range are stored as given; anything
        # else is converted and checked field by field.
        if not (
            _is_id(image_id)
            and _is_id(category_id)
            and type(score) is float
            and 0.0 <= score <= 1.0
        ):
            _check_id("image_id", image_id)
            _check_id("category_id", category_id)
            value = float(score)
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"score must be in [0, 1], got {score!r}")
            score = value
        _set(self, "image_id", image_id)
        _set(self, "category_id", category_id)
        _set(self, "score", score)
        _set(self, "box", box)
        _set(self, "mask", mask)


@dataclass(frozen=True, slots=True, init=False)
class GroundTruthInstance:
    """One annotated object."""

    image_id: str
    category_id: str
    box: Box
    mask: BinaryMask | None = None

    def __init__(
        self, image_id: str, category_id: str, box: Box, mask: BinaryMask | None = None
    ) -> None:
        if not (_is_id(image_id) and _is_id(category_id)):
            _check_id("image_id", image_id)
            _check_id("category_id", category_id)
        _set(self, "image_id", image_id)
        _set(self, "category_id", category_id)
        _set(self, "box", box)
        _set(self, "mask", mask)


@dataclass(frozen=True)
class VerificationTable:
    """Per (image, category) verification state: positive, negative, or absent.

    Absence of a key means the category is unverified on that image.
    """

    entries: dict[tuple[str, str], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Each distinct id, and the set of signs, is checked once; on any
        # failure the entries are checked one by one for the error.
        entries = self.entries
        if (
            {*map(type, entries)} <= {tuple}
            and {*map(len, entries)} <= {2}
            and {*map(type, entries.values())} <= {int}
            and {*entries.values()} <= {POSITIVE, NEGATIVE}
        ):
            images, categories = [*zip(*entries)] or [(), ()]
            if all(map(_is_id, {*images})) and all(map(_is_id, {*categories})):
                object.__setattr__(self, "entries", dict(entries))
                return
        copied: dict[tuple[str, str], int] = {}
        for key, sign in entries.items():
            image_id, category_id = key
            _check_id("image_id", image_id)
            _check_id("category_id", category_id)
            if sign not in (POSITIVE, NEGATIVE):
                raise ValidationError(
                    f"verification for {key!r} must be {POSITIVE} or {NEGATIVE}, got {sign!r}"
                )
            copied[(image_id, category_id)] = int(sign)
        object.__setattr__(self, "entries", copied)

    def status(self, image_id: str, category_id: str) -> int:
        """POSITIVE, NEGATIVE, or UNVERIFIED for the given pair."""
        return self.entries.get((image_id, category_id), UNVERIFIED)

    def items(self):
        return self.entries.items()

    def __len__(self) -> int:
        return len(self.entries)


class Hierarchy:
    """Acyclic is-a graph over category ids; edges run child -> parent."""

    def __init__(
        self,
        edges: Iterable[tuple[str, str]] = (),
        categories: Iterable[str] | None = None,
    ):
        normalized = set()
        for child, parent in edges:
            _check_id("child", child)
            _check_id("parent", parent)
            if child == parent:
                raise ValidationError(f"hierarchy contains a cycle through {child!r}")
            normalized.add((child, parent))
        self._edges: tuple[tuple[str, str], ...] = tuple(sorted(normalized))
        if categories is not None:
            known = set(categories)
            for edge in self._edges:
                for category in edge:
                    if category not in known:
                        raise ValidationError(
                            f"hierarchy references unknown category {category!r}"
                        )
        self._parents: dict[str, set[str]] = {}
        self._children: dict[str, set[str]] = {}
        for child, parent in self._edges:
            self._parents.setdefault(child, set()).add(parent)
            self._children.setdefault(parent, set()).add(child)
        self._check_acyclic()

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        return self._edges

    def _check_acyclic(self) -> None:
        # Kahn's algorithm on the child -> parent digraph; leftovers form cycles.
        nodes = set(self._parents) | set(self._children)
        out_degree = {node: len(self._parents.get(node, ())) for node in nodes}
        ready = [node for node, deg in out_degree.items() if deg == 0]
        seen = 0
        while ready:
            node = ready.pop()
            seen += 1
            for child in self._children.get(node, ()):
                out_degree[child] -= 1
                if out_degree[child] == 0:
                    ready.append(child)
        if seen != len(nodes):
            leftover = min(node for node, deg in out_degree.items() if deg > 0)
            raise ValidationError(f"hierarchy contains a cycle through {leftover!r}")

    def _closure(self, category: str, adjacency: dict[str, set[str]]) -> frozenset[str]:
        reached: set[str] = set()
        frontier = [category]
        while frontier:
            node = frontier.pop()
            for nxt in adjacency.get(node, ()):
                if nxt not in reached:
                    reached.add(nxt)
                    frontier.append(nxt)
        return frozenset(reached)

    def ancestors(self, category: str) -> frozenset[str]:
        """All transitive parents of a category (excluding itself)."""
        return self._closure(category, self._parents)

    def descendants(self, category: str) -> frozenset[str]:
        """All transitive children of a category (excluding itself)."""
        return self._closure(category, self._children)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hierarchy):
            return NotImplemented
        return self._edges == other._edges

    def __hash__(self) -> int:
        return hash(self._edges)

    def __repr__(self) -> str:
        return f"Hierarchy({list(self._edges)!r})"


@dataclass(frozen=True)
class CategoryStats:
    """Number of images each category is annotated in."""

    counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        copied: dict[str, int] = {}
        for category_id, count in self.counts.items():
            _check_id("category_id", category_id)
            if isinstance(count, bool) or int(count) != count or count < 0:
                raise ValidationError(
                    f"occurrence count for {category_id!r} must be a non-negative "
                    f"integer, got {count!r}"
                )
            copied[category_id] = int(count)
        object.__setattr__(self, "counts", copied)

    def items(self):
        return self.counts.items()

    def __len__(self) -> int:
        return len(self.counts)


@dataclass(frozen=True, slots=True, init=False)
class Roi:
    """A candidate region presented to a detector head."""

    box: Box
    objectness: float | None = None

    def __init__(self, box: Box, objectness: float | None = None) -> None:
        if objectness is not None:
            value = float(objectness)
            if not isfinite(value):
                raise ValidationError(f"objectness must be finite, got {objectness!r}")
            objectness = value
        _set(self, "box", box)
        _set(self, "objectness", objectness)


@dataclass(frozen=True)
class RoiPool:
    """Pre-computed RoIs per image, capped at max_per_image."""

    images: dict[str, tuple[Roi, ...]] = field(default_factory=dict)
    max_per_image: int = DEFAULT_POOL_LIMIT

    def __post_init__(self) -> None:
        if self.max_per_image < 1:
            raise ValidationError(f"max_per_image must be >= 1, got {self.max_per_image}")
        copied: dict[str, tuple[Roi, ...]] = {}
        for image_id, rois in self.images.items():
            _check_id("image_id", image_id)
            rois = tuple(rois)
            if len(rois) > self.max_per_image:
                raise ValidationError(
                    f"image {image_id!r} has {len(rois)} RoIs, exceeding the "
                    f"pool limit of {self.max_per_image}"
                )
            copied[image_id] = rois
        object.__setattr__(self, "images", copied)

    def __len__(self) -> int:
        return len(self.images)


class EmbeddingTable:
    """Per-category feature vectors of one shared dimension."""

    def __init__(self, vectors: Mapping[str, Sequence[float]]):
        if not vectors:
            raise ValidationError("embedding table must not be empty")
        store: dict[str, np.ndarray] = {}
        dimension: int | None = None
        for category_id, vector in vectors.items():
            _check_id("category_id", category_id)
            arr = np.array(vector, dtype=np.float64, copy=True)
            if arr.ndim != 1:
                raise ValidationError(f"embedding for {category_id!r} must be a flat vector")
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"embedding for {category_id!r} has non-finite entries")
            if dimension is None:
                dimension = arr.size
                if dimension < 1:
                    raise ValidationError("embedding dimension must be >= 1")
            elif arr.size != dimension:
                raise ValidationError(
                    f"embedding dimension mismatch for {category_id!r}: "
                    f"expected {dimension}, got {arr.size}"
                )
            arr.setflags(write=False)
            store[category_id] = arr
        self._vectors = store
        self._dimension = int(dimension or 0)

    @property
    def dimension(self) -> int:
        return self._dimension

    def __getitem__(self, category_id: str) -> np.ndarray:
        return self._vectors[category_id]

    def __iter__(self):
        return iter(self._vectors)

    def __len__(self) -> int:
        return len(self._vectors)

    def __contains__(self, category_id: str) -> bool:
        return category_id in self._vectors

    def items(self):
        return self._vectors.items()
