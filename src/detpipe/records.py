"""Record types shared across the pipeline.

Predictions and ground-truth instances are the payload records; the side
tables (verification, hierarchy, occurrence stats, RoI pools, embeddings)
describe the federated dataset they live in.

``_CodedTable`` is the one core of the tables that hold a file as
dictionary-coded columns: ``VerificationTable`` and ``RoiPool`` here, and
``PredictionTable`` and ``GroundTruthTable`` in ``table``.  It holds each id
column as a sorted vocabulary and int32 codes, and gives every table its
trusted constructor, ``take``, length, row views and ``by_image``.  Its one
``take`` rule keeps a vocabulary to the ids of the taken rows, so every
table holds exactly the ids its rows use.  ``_Codes`` interns an id column
a parse gives a chunk at a time.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import partial
from itertools import compress, count, zip_longest
from math import isfinite, isnan, nan

import numpy as np

from .errors import ValidationError
from .geometry import BinaryMask, Box, _corners

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


class _Codes:
    """The codes of one id column, given a chunk at a time.  Each id gets a
    code in order of first sight, from one dict across the chunks (a missing
    id takes the next code); ``finish`` sorts the vocabulary once and remaps
    every code through the rank array, so that an id's code is its index in
    the sorted vocabulary."""

    __slots__ = ("first_seen", "parts")

    def __init__(self) -> None:
        self.first_seen: defaultdict[str, int] = defaultdict(count().__next__)
        self.parts: list[np.ndarray] = []

    def add(self, ids: Sequence[str]) -> None:
        self.parts.append(np.fromiter(map(self.first_seen.__getitem__, ids), np.int32, len(ids)))

    def finish(self) -> tuple[tuple[str, ...], np.ndarray]:
        """The sorted distinct ids and each id's code, its index among them."""
        firsts = list(self.first_seen)
        order = sorted(range(len(firsts)), key=firsts.__getitem__)
        rank = np.empty(len(firsts), dtype=np.int32)
        rank[order] = np.arange(len(firsts), dtype=np.int32)
        codes = np.concatenate(self.parts) if self.parts else np.zeros(0, dtype=np.int32)
        return tuple(map(firsts.__getitem__, order)), rank[codes]


def _intern(ids: Sequence[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """The sorted distinct ids and each id's code, its index among them."""
    codes = _Codes()
    codes.add(ids)
    return codes.finish()


def _compacted(
    vocabulary: tuple[str, ...], codes: np.ndarray
) -> tuple[tuple[str, ...], np.ndarray]:
    """The ids of a vocabulary that codes use, in order, and the codes
    remapped to them: one bincount and one cumsum, O(codes + ids)."""
    used = np.bincount(codes, minlength=len(vocabulary)) > 0
    remapped = (np.cumsum(used, dtype=np.int32) - 1)[codes]
    return tuple(compress(vocabulary, used.tolist())), remapped


class _CodedTable:
    """A file held as dictionary-coded columns.  Each id column named in
    ``_ids`` is held as ``<name>_ids``, the sorted distinct ids of the rows,
    and ``<name>_codes``, each row's int32 index among them, so that code
    order is id order.  ``_columns`` names the other per-row columns: numpy
    arrays indexed by row, or objects with their own ``take``; any may be
    None.  No column is a list, so no table holds a Python object per row.
    A subclass lists its fields in ``__slots__`` in constructor order:
    vocabularies, codes, columns, then what ``take`` keeps as it is; last
    its caches, whose names start with an underscore and which start as
    None.

    The constructor and ``from_columns`` trust their columns.  ``take``
    keeps each vocabulary to the ids of the taken rows, so a table holds
    exactly the ids its rows use, as the parse of its file gives them.
    ``_row`` builds a row view from the Python values of ``_row_fields``:
    the ids of an id column, Box views of an [N, 4] array, the values of
    any other array, and the items a column object gives for a slice.
    """

    __slots__ = ()
    _ids: tuple[str, ...] = ("image", "category")
    _columns: tuple[str, ...]
    _row_fields: tuple[str, ...]
    _row: Callable

    def __init__(self, *fields) -> None:
        for name, value in zip_longest(self.__slots__, fields):
            setattr(self, name, value)

    @classmethod
    def from_columns(cls, *fields):
        table = cls.__new__(cls)
        _CodedTable.__init__(table, *fields)
        return table

    def __len__(self) -> int:
        return len(self.image_codes)

    def __iter__(self):
        return iter(self.rows())

    def row(self, index: int):
        index = range(len(self))[index]
        return self._views(slice(index, index + 1))[0]

    def rows(self) -> list:
        return self._views(slice(None))

    def _views(self, rows: slice) -> list:
        """The row views of a slice of the rows."""
        values = []
        for name in self._row_fields:
            if name in self._ids:
                vocabulary = getattr(self, f"{name}_ids")
                column = map(vocabulary.__getitem__, getattr(self, f"{name}_codes")[rows].tolist())
            else:
                column = getattr(self, name)[rows]
                if isinstance(column, np.ndarray):
                    column = map(Box, *column.T.tolist()) if column.ndim == 2 else column.tolist()
            values.append(column)
        return list(map(self._row, *values))

    def take(self, indices: np.ndarray):
        """The rows at the given indices, in that order, over the ids they
        use."""
        taken = {}
        for name in self._ids:
            taken[f"{name}_ids"], taken[f"{name}_codes"] = _compacted(
                getattr(self, f"{name}_ids"), getattr(self, f"{name}_codes")[indices]
            )
        for name in self._columns:
            column = getattr(self, name)
            if isinstance(column, np.ndarray):
                taken[name] = column[indices]
            elif column is not None:
                taken[name] = column.take(indices)
        return self.from_columns(
            *(taken.get(name, getattr(self, name)) for name in self.__slots__ if name[0] != "_")
        )

    def by_image(self) -> defaultdict[str, np.ndarray]:
        """Each image id's row indices, in row order; an empty array for an
        image without rows."""
        order = np.argsort(self.image_codes, kind="stable")
        ends = np.searchsorted(self.image_codes[order], np.arange(1, len(self.image_ids) + 1)).tolist()
        rows = defaultdict(partial(np.zeros, 0, np.intp))
        rows.update(zip(self.image_ids, map(order.__getitem__, map(slice, [0, *ends], ends))))
        return rows


def _checked_entries(entries: Mapping[tuple[str, str], int]) -> dict[tuple[str, str], int]:
    """A copy of verification entries, each key an (image_id, category_id)
    pair of ids and each sign POSITIVE or NEGATIVE.  Each distinct id, and
    the set of signs, is checked once; on any failure the entries are
    checked one by one for the error."""
    if (
        {*map(type, entries)} <= {tuple}
        and {*map(len, entries)} <= {2}
        and {*map(type, entries.values())} <= {int}
        and {*entries.values()} <= {POSITIVE, NEGATIVE}
    ):
        images, categories = [*zip(*entries)] or [(), ()]
        if all(map(_is_id, {*images})) and all(map(_is_id, {*categories})):
            return dict(entries)
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
    return copied


# The code of the one id a single-pair status lookup passes.
_FIRST = np.zeros(1, dtype=np.intp)


class VerificationTable(_CodedTable):
    """Per (image, category) verification state: positive, negative, or absent.

    Absence of a key means the category is unverified on that image.  Each
    distinct (image, category) pair is held once, in order of first
    appearance, as a coded table (``_CodedTable``) with its sign, POSITIVE
    or NEGATIVE, as int8; a row view is ``((image_id, category_id), sign)``.
    ``VerificationTable(entries)`` checks a mapping of (image_id,
    category_id) keys to signs; ``from_columns`` trusts its columns, as the
    parser and hierarchy expansion give them.  Two tables are equal when
    their entries are.  ``_lookup`` is built by the first status lookup:
    each vocabulary's code of an id, and the pair keys in sorted order with
    their signs.  ``_closure`` keeps the last hierarchy
    ``expand_verification`` closed the table over, with that closure.
    """

    __slots__ = (
        "image_ids", "category_ids", "image_codes", "category_codes", "signs", "_lookup", "_closure"
    )
    __hash__ = None
    _columns = ("signs",)
    _row_fields = ("image", "category", "signs")
    _row = staticmethod(lambda image_id, category_id, sign: ((image_id, category_id), sign))

    def __init__(self, entries: Mapping[tuple[str, str], int] | None = None) -> None:
        entries = _checked_entries(entries or {})
        images, image_codes = _intern([image_id for image_id, _ in entries])
        categories, category_codes = _intern([category_id for _, category_id in entries])
        signs = np.fromiter(entries.values(), np.int8, len(entries))
        super().__init__(images, categories, image_codes, category_codes, signs)

    @property
    def entries(self) -> dict[tuple[str, str], int]:
        """(image_id, category_id) -> sign, in row order."""
        return dict(self.rows())

    def status(self, image_id: str, category_id: str) -> int:
        """POSITIVE, NEGATIVE, or UNVERIFIED for the given pair."""
        return int(self.statuses((image_id,), _FIRST, (category_id,), _FIRST)[0])

    def statuses(
        self,
        image_ids: Sequence[str],
        image_codes: np.ndarray,
        category_ids: Sequence[str],
        category_codes: np.ndarray,
    ) -> np.ndarray:
        """POSITIVE, NEGATIVE or UNVERIFIED, as int8, of each pair
        (image_ids[image_codes[i]], category_ids[category_codes[i]])."""
        if self._lookup is None:
            n = len(self.category_ids)
            keys = self.image_codes.astype(np.int64) * n + self.category_codes
            # A stable sort takes an expansion's two sorted runs in one merge.
            order = np.argsort(keys, kind="stable")
            # A last key above every pair's keeps each search in range.
            self._lookup = (
                {value: code for code, value in enumerate(self.image_ids)},
                {value: code for code, value in enumerate(self.category_ids)},
                np.append(keys[order], np.iinfo(np.int64).max),
                np.append(self.signs[order], np.int8(UNVERIFIED)),
            )
        image_code, category_code, keys, signs = self._lookup
        images = np.fromiter((image_code.get(v, -1) for v in image_ids), np.int64, len(image_ids))
        categories = np.fromiter(
            (category_code.get(v, -1) for v in category_ids), np.int64, len(category_ids)
        )
        images, categories = images[image_codes], categories[category_codes]
        wanted = images * len(self.category_ids) + categories
        at = np.searchsorted(keys, wanted)
        statuses = signs[at]
        statuses[(images < 0) | (categories < 0) | (keys[at] != wanted)] = UNVERIFIED
        return statuses

    def items(self):
        return self.entries.items()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VerificationTable):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        return f"VerificationTable({self.entries!r})"


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
    """A candidate region presented to a detector head: the record that
    ``RoiPool(images)`` takes, and the row view ``RoiPool.images`` gives."""

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


def _check_pool_limit(max_per_image: int) -> None:
    if max_per_image < 1:
        raise ValidationError(f"max_per_image must be >= 1, got {max_per_image}")


class RoiPool(_CodedTable):
    """Pre-computed RoIs of images, at most ``max_per_image`` an image, held
    as a coded table (``_CodedTable``) of image ids, with ``boxes`` as
    float64 ``[N, 4]`` (x_min, y_min, x_max, y_max) and ``objectness`` as
    float64 ``[N]``, NaN for none (a given objectness is finite).  A row
    view is a ``Roi``, and a pool's length is its number of RoIs.

    ``RoiPool(images)`` checks a mapping of image ids to ``Roi`` records and
    holds its rows image by image, in the mapping's order; an image without
    RoIs is not held, as a pool file has no line for it.  ``from_columns``
    trusts its columns, as the parser gives them.  ``images`` maps each
    image id, in the order of its first row, to the ``Roi`` views of its
    rows, in row order; it is built on first access.  Two pools are equal
    when their images and limits are.
    """

    __slots__ = ("image_ids", "image_codes", "boxes", "objectness", "max_per_image", "_images")
    __hash__ = None
    _ids = ("image",)
    _columns = ("boxes", "objectness")
    _row_fields = ("boxes", "objectness")
    _row = staticmethod(lambda box, objectness: Roi(box, None if isnan(objectness) else objectness))

    def __init__(
        self,
        images: Mapping[str, Sequence[Roi]] | None = None,
        max_per_image: int = DEFAULT_POOL_LIMIT,
    ) -> None:
        _check_pool_limit(max_per_image)
        ids: list[str] = []
        rois: list[Roi] = []
        for image_id, image_rois in (images or {}).items():
            _check_id("image_id", image_id)
            image_rois = tuple(image_rois)
            if len(image_rois) > max_per_image:
                raise ValidationError(
                    f"image {image_id!r} has {len(image_rois)} RoIs, exceeding the "
                    f"pool limit of {max_per_image}"
                )
            ids += [image_id] * len(image_rois)
            rois += image_rois
        image_ids, image_codes = _intern(ids)
        objectness = [nan if roi.objectness is None else roi.objectness for roi in rois]
        super().__init__(
            image_ids,
            image_codes,
            _corners([roi.box for roi in rois]),
            np.array(objectness, dtype=np.float64),
            max_per_image,
        )

    @property
    def images(self) -> dict[str, tuple[Roi, ...]]:
        """Image id -> the image's RoIs, in row order."""
        if self._images is None:
            rois = self.rows()
            by_first_row = sorted(self.by_image().items(), key=lambda item: item[1][0])
            self._images = {
                image_id: tuple(map(rois.__getitem__, rows.tolist()))
                for image_id, rows in by_first_row
            }
        return self._images

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoiPool):
            return NotImplemented
        return self.images == other.images and self.max_per_image == other.max_per_image

    def __repr__(self) -> str:
        return f"RoiPool({self.images!r}, max_per_image={self.max_per_image!r})"


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
