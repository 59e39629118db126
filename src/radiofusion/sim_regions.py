"""Simulated radio regions built from ground-truth person boxes.

Real localization errors are imitated by reshaping each ground-truth box
into a square of side ``min(w, h)``, scaling that side by a Gaussian factor
drawn from N(1, sigma) to mimic ranging error, and shifting the center by
Gaussian offsets whose standard deviation is ``k * side`` to mimic angular
error. The raw scale draw is clamped so the resulting edge never drops
below 5% of the original side, which keeps regions non-degenerate without
touching the shift model. The Caltech ground-truth filters are masks over
``world.Annotations`` columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .world import Annotation, Annotations, RadioRegion, group_by_image

MIN_EDGE_SCALE = 0.05


@dataclass(frozen=True)
class NoiseParams:
    """Scale / shift noise levels for simulated regions."""

    sigma: float = 0.2
    k1: float = 0.1
    k2: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sigma < 0 or self.k1 < 0 or self.k2 < 0:
            raise InvalidInputError("noise standard deviations must be >= 0")


@dataclass(frozen=True)
class RegionNoiseDraw:
    """One realization of the region noise model.

    ``scale`` is the raw Gaussian multiplier before the edge floor; ``edge``
    the resulting side length; ``dx``/``dy`` the center shifts, drawn with
    standard deviation k1*edge and k2*edge.
    """

    scale: float
    edge: float
    dx: float
    dy: float


def draw_region_noise(noise: NoiseParams, side: float, rng: np.random.Generator) -> RegionNoiseDraw:
    """Sample scale and shift noise for a square of the given base side."""
    scale = float(rng.normal(1.0, noise.sigma))
    edge = side * max(scale, MIN_EDGE_SCALE)
    dx = float(rng.normal(0.0, noise.k1 * edge))
    dy = float(rng.normal(0.0, noise.k2 * edge))
    return RegionNoiseDraw(scale=scale, edge=edge, dx=dx, dy=dy)


def gt_to_region(
    ann: Annotation,
    noise: NoiseParams,
    rng: np.random.Generator,
    identifier: str = "r0",
) -> RadioRegion:
    """Turn one annotation into a noisy square region.

    The draw order (scale, then x shift, then y shift) is fixed, so results
    are bit-identical for a given generator state.
    """
    x, y, w, h = ann.bbox
    side = min(w, h)
    draw = draw_region_noise(noise, side, rng)
    return RadioRegion(
        center_x=x + w / 2.0 + draw.dx,
        center_y=y + h / 2.0 + draw.dy,
        edge=draw.edge,
        identifier=identifier,
    )


def build_simulative_set(
    annotations: list[Annotation],
    noise: NoiseParams,
    category: str = "person",
) -> dict[str, list[RadioRegion]]:
    """Build per-image region lists from annotations of one category.

    Images are visited in ascending image_id order and annotations in their
    input order within each image, so a fixed ``noise.seed`` reproduces the
    exact same regions. Region identifiers are unique within each image.
    """
    per_image = group_by_image(ann for ann in annotations if ann.category == category)
    rng = np.random.default_rng(noise.seed)
    regions: dict[str, list[RadioRegion]] = {}
    for image_id in sorted(per_image):
        anns = per_image[image_id]
        regions[image_id] = [
            gt_to_region(ann, noise, rng, identifier=f"r{i}") for i, ann in enumerate(anns)
        ]
    return regions


# Ground-truth filters: a mask over ``Annotations`` (or one ``Annotation``'s
# truth value), by the same comparisons either way.

def reasonable_filter(gts: Annotations | Annotation) -> np.ndarray | bool:
    """Caltech 'reasonable' protocol: taller than 60 px, under 35% occluded."""
    return (gts.height > 60.0) & (gts.occlusion < 0.35)


def all_filter(gts: Annotations | Annotation) -> np.ndarray | bool:
    """Caltech 'all' protocol: taller than 20 px, under 80% occluded."""
    return (gts.height > 20.0) & (gts.occlusion < 0.80)


GT_FILTERS = {
    "none": lambda gts: True,
    "reasonable": reasonable_filter,
    "all": all_filter,
}
