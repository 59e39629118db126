"""Simulated radio regions built from ground-truth person boxes.

Real localization errors are imitated by reshaping each ground-truth box
into a square of side ``min(w, h)``, scaling that side by a Gaussian factor
drawn from N(1, sigma) to mimic ranging error, and shifting the center by
Gaussian offsets whose standard deviation is ``k * side`` to mimic angular
error. The raw scale draw is clamped so the resulting edge never drops
below 5% of the original side, which keeps regions non-degenerate without
touching the shift model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, require_finite
from .geometry import Rect, require_box
from .imaging import RadioRegion
from .world import group_by_image

MIN_EDGE_SCALE = 0.05


@dataclass(frozen=True)
class Annotation:
    """Ground-truth person box for one image."""

    image_id: str
    bbox: Rect
    category: str = "person"
    height_px: float | None = None
    occlusion_fraction: float | None = None

    def __post_init__(self) -> None:
        require_box("annotation", self.bbox)
        require_finite("annotation", self.height_px, self.occlusion_fraction)
        _, _, w, h = self.bbox
        if w <= 0 or h <= 0:
            raise InvalidInputError(f"annotation bbox must have positive extents, got {self.bbox}")
        if self.height_px is not None and self.height_px <= 0:
            raise InvalidInputError(f"annotation height must be > 0, got {self.height_px}")
        if self.occlusion_fraction is not None and not 0.0 <= self.occlusion_fraction <= 1.0:
            raise InvalidInputError(
                f"annotation occlusion must be in [0, 1], got {self.occlusion_fraction}")

    @property
    def height(self) -> float:
        """Pedestrian height in pixels, defaulting to the box height."""
        return self.height_px if self.height_px is not None else self.bbox[3]

    @property
    def occlusion(self) -> float:
        return self.occlusion_fraction if self.occlusion_fraction is not None else 0.0


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


def reasonable_filter(ann: Annotation) -> bool:
    """Caltech 'reasonable' protocol: taller than 60 px, under 35% occluded."""
    return ann.height > 60.0 and ann.occlusion < 0.35


def all_filter(ann: Annotation) -> bool:
    """Caltech 'all' protocol: taller than 20 px, under 80% occluded."""
    return ann.height > 20.0 and ann.occlusion < 0.80


GT_FILTERS = {
    "none": lambda ann: True,
    "reasonable": reasonable_filter,
    "all": all_filter,
}
