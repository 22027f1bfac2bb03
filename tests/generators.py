"""Seeded random record generators shared by the unit and acceptance tests."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from detpipe import Box, GroundTruthInstance, Prediction, mask_encode


def random_box(rng: np.random.Generator, side: float = 100.0) -> Box:
    x0, y0 = rng.uniform(0, side * 0.7, size=2)
    w, h = rng.uniform(side * 0.05, side * 0.3, size=2)
    return Box(x0, y0, x0 + w, y0 + h)


# Corners on a small grid, so boxes tie on IoU, touch at an edge and have
# zero area; plus corners at +-1e308, whose widths overflow to infinity and
# give nan IoUs between two such boxes.
_CORNER = st.one_of(
    st.integers(0, 4).map(float),
    st.floats(0.0, 4.0),
    st.sampled_from([-1e308, 1e308]),
)


# A box whose area overflows to infinity: its IoU with itself is nan.
HUGE_BOX = Box(-1e308, -1e308, 1e308, 1e308)


@st.composite
def overlap_boxes(draw) -> Box:
    x = sorted((draw(_CORNER), draw(_CORNER)))
    y = sorted((draw(_CORNER), draw(_CORNER)))
    return Box(x[0], y[0], x[1], y[1])


def random_mask(rng: np.random.Generator, width: int, height: int):
    grid = (rng.uniform(size=(height, width)) < rng.uniform(0.2, 0.8)).astype(np.uint8)
    return mask_encode(grid)


def random_predictions(
    rng: np.random.Generator,
    n: int,
    n_images: int = 20,
    n_categories: int = 5,
    masked: bool = False,
    mask_size: tuple[int, int] = (16, 16),
) -> list[Prediction]:
    out = []
    for _ in range(n):
        mask = random_mask(rng, *mask_size) if masked else None
        out.append(
            Prediction(
                image_id=f"im{rng.integers(n_images):03d}",
                category_id=f"c{rng.integers(n_categories)}",
                score=float(rng.uniform(0.01, 0.99)),
                box=random_box(rng),
                mask=mask,
            )
        )
    return out


def random_ground_truth(
    rng: np.random.Generator,
    n: int,
    n_images: int = 20,
    n_categories: int = 5,
) -> list[GroundTruthInstance]:
    return [
        GroundTruthInstance(
            image_id=f"im{rng.integers(n_images):03d}",
            category_id=f"c{rng.integers(n_categories)}",
            box=random_box(rng),
        )
        for _ in range(n)
    ]
