"""RoI pool utilities for head training and the learning-rate formulas.

Everything random in this module goes through SplitMix64, a portable 64-bit
generator defined below by its algorithm, so identical seeds reproduce
identical samples on every platform.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TypeVar

import numpy as np

from .errors import ValidationError
from .geometry import Box, _areas, _best_overlaps, _check_integer, _corners, _iou

__all__ = [
    "SplitMix64",
    "fnv1a64",
    "SamplerConfig",
    "sample_rois",
    "partition_pool",
    "base_lr",
    "cosine_lr",
]

_T = TypeVar("_T")

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 pseudo-random generator.

    The state advances by the 64-bit constant 0x9E3779B97F4A7C15 each draw and
    the output is the state mixed by two xor-shift-multiply rounds with the
    constants 0xBF58476D1CE4E5B9 (shift 30) and 0x94D049BB133111EB (shift 27),
    followed by a final shift of 31.  All arithmetic is modulo 2**64.  Bounded
    draws use rejection sampling on whole 64-bit words, so they are exactly
    uniform and identical across platforms.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) without modulo bias.

        Consumes no state when bound is 1; otherwise draws 64-bit words and
        rejects the tail that would make the modulus non-uniform.
        """
        if bound < 1:
            raise ValidationError(f"bound must be positive, got {bound}")
        if bound == 1:
            return 0
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            word = self.next_uint64()
            if word < limit:
                return word % bound

    def sample(self, items: Sequence[_T], k: int) -> list[_T]:
        """k distinct items drawn uniformly without replacement (partial
        Fisher-Yates over a copy; draw order is the output order)."""
        pool = list(items)
        if k > len(pool):
            raise ValidationError(f"cannot sample {k} of {len(pool)} items")
        for i in range(k):
            j = i + self.below(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]


def fnv1a64(text: str) -> int:
    """FNV-1a 64-bit hash of the UTF-8 encoding; used to derive per-image seeds."""
    value = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        value = ((value ^ byte) * 0x100000001B3) & _MASK64
    return value


@dataclass(frozen=True, slots=True)
class SamplerConfig:
    """Per-image RoI sampling parameters for head-loss computation."""

    n_sample: int = 512
    fg_fraction: float = 0.25
    fg_iou_threshold: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        n_sample = _check_integer("n_sample", self.n_sample)
        if n_sample < 1:
            raise ValidationError(f"n_sample must be >= 1, got {n_sample}")
        try:
            float(n_sample)
        except OverflowError as exc:
            raise ValidationError("n_sample is too large to convert to a float") from exc
        object.__setattr__(self, "n_sample", n_sample)
        object.__setattr__(self, "seed", _check_integer("seed", self.seed))
        if not 0.0 < self.fg_fraction < 1.0:
            raise ValidationError(f"fg_fraction must be in (0, 1), got {self.fg_fraction}")
        if not 0.0 < self.fg_iou_threshold <= 1.0:
            raise ValidationError(
                f"fg_iou_threshold must be in (0, 1], got {self.fg_iou_threshold}"
            )


def sample_rois(
    rois: Sequence[Box] | np.ndarray,
    gt_boxes: Sequence[Box] | np.ndarray,
    config: SamplerConfig,
) -> list[int]:
    """Sample distinct RoI indices for one image, stratified into foreground
    (max IoU to any ground truth >= fg_iou_threshold) and background.  RoIs
    and ground truth are boxes or ``[N, 4]`` corner arrays.

    Foreground fills up to ceil(fg_fraction * n_sample) slots when available;
    background fills the rest; a shortfall on either side is topped up from
    the other.  Output lists the foreground draws first, then background, each
    in draw order.  Deterministic given the seed.
    """
    if not len(rois):
        raise ValidationError("RoI pool for the image is empty")
    n_take = min(config.n_sample, len(rois))
    corners, gt_corners = _corners(rois), _corners(gt_boxes)
    best = _best_overlaps(corners, gt_corners)[0]
    # The best IoU is max() over the ground truth in order: a nan IoU with the
    # first ground truth is never beaten, so its RoI is background.
    first = gt_corners[:1]
    if len(first):
        best[np.isnan(_iou(corners, _areas(corners), first, _areas(first)))] = np.nan
    is_foreground = best >= config.fg_iou_threshold
    foreground = is_foreground.nonzero()[0].tolist()
    background = (~is_foreground).nonzero()[0].tolist()
    fg_quota = math.ceil(config.fg_fraction * config.n_sample)
    fg_take = min(len(foreground), fg_quota, n_take)
    bg_take = min(len(background), n_take - fg_take)
    fg_take = min(len(foreground), n_take - bg_take)
    rng = SplitMix64(config.seed)
    return rng.sample(foreground, fg_take) + rng.sample(background, bg_take)


def partition_pool(pool: Sequence[_T], k: int) -> list[list[_T]]:
    """Split a per-image RoI list into k disjoint lists, round-robin by index:
    element j goes to partition j mod k.  Order is preserved within each
    partition and the partitions together cover the pool exactly."""
    k = _check_integer("number of partitions", k)
    if k < 1:
        raise ValidationError(f"number of partitions must be >= 1, got {k}")
    return [list(pool[j::k]) for j in range(k)]


def base_lr(batch_size: int) -> float:
    """Initial learning rate: 0.00125 per example in the batch."""
    if batch_size < 1:
        raise ValidationError(f"batch_size must be >= 1, got {batch_size}")
    try:
        return 0.00125 * batch_size
    except OverflowError as exc:
        raise ValidationError("batch_size is too large to convert to a float") from exc


def cosine_lr(progress: float, eta0: float) -> float:
    """Learning rate at a training progress ratio: eta0 * (cos(progress*pi)+1)/2."""
    if not 0.0 <= progress <= 1.0:
        raise ValidationError(f"progress must be in [0, 1], got {progress!r}")
    if not math.isfinite(eta0) or eta0 <= 0.0:
        raise ValidationError(f"eta0 must be positive, got {eta0!r}")
    return eta0 * (math.cos(progress * math.pi) + 1.0) / 2.0
