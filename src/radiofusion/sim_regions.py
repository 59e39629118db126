"""Simulated radio regions built from ground-truth person boxes.

Real localization errors are imitated by reshaping each ground-truth box
into a square of side ``min(w, h)``, scaling that side by a Gaussian factor
drawn from N(1, sigma) to mimic ranging error, and shifting the center by
Gaussian offsets whose standard deviation is ``k * side`` to mimic angular
error. The raw scale draw is clamped so the resulting edge never drops
below 5% of the original side, which keeps regions non-degenerate without
touching the shift model. One kernel, ``draw_region_noise``, draws every
person of a call at once: one standard normal row (scale, x shift, y shift)
per person, people in ascending image id and input order, which consumes
the generator exactly as three scalar ``rng.normal`` calls per person would.
``build_simulative_set`` returns the regions as one ``world.Regions`` table
built from the draw's arrays, with no per-region record. The Caltech
ground-truth filters are masks over ``world.Annotations`` columns.
"""

from __future__ import annotations

import numbers
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .world import Annotation, Annotations, RadioRegion, Regions

MIN_EDGE_SCALE = 0.05


@dataclass(frozen=True)
class NoiseParams:
    """Scale / shift noise levels for simulated regions."""

    sigma: float = 0.2
    k1: float = 0.1
    k2: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("sigma", "k1", "k2"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and 0.0 <= value < np.inf):
                raise InvalidInputError(f"noise {name} must be finite and >= 0, got {value!r}")
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise InvalidInputError(f"noise seed must be an integer >= 0, got {seed!r}")


@dataclass(frozen=True)
class RegionNoiseDraw:
    """One realization of the region noise model, per side drawn.

    ``scale`` is the raw Gaussian multiplier before the edge floor; ``edge``
    the resulting side length; ``dx``/``dy`` the center shifts, drawn with
    standard deviation k1*edge and k2*edge.
    """

    scale: np.ndarray
    edge: np.ndarray
    dx: np.ndarray
    dy: np.ndarray


def draw_region_noise(noise: NoiseParams, side: float | np.ndarray,
                      rng: np.random.Generator) -> RegionNoiseDraw:
    """Sample scale and shift noise for squares of the given base sides.

    One standard normal row (scale, dx, dy) per side, in the order of the
    sides, with ``rng.normal``'s ``loc + scale * z`` arithmetic, so the
    results are bit-identical to three scalar ``rng.normal`` calls per side.
    """
    side = np.asarray(side, dtype=float)
    z = rng.standard_normal((*side.shape, 3))
    scale = 1.0 + noise.sigma * z[..., 0]
    edge = side * np.maximum(scale, MIN_EDGE_SCALE)
    dx = 0.0 + (noise.k1 * edge) * z[..., 1]
    dy = 0.0 + (noise.k2 * edge) * z[..., 2]
    return RegionNoiseDraw(scale=scale, edge=edge, dx=dx, dy=dy)


def build_simulative_set(annotations: Annotations | Iterable[Annotation],
                         noise: NoiseParams) -> Regions:
    """The regions of the people among annotations (columns, or records
    converted on entry) as one ``Regions`` table, rows grouped by image; the
    id table names only the images that have a person.

    Every person is drawn in one pass, in ascending image_id order and input
    order within each image, so a fixed ``noise.seed`` reproduces the exact
    same regions. Region identifiers ``r0``, ``r1``, ... are unique within
    each image. A region that no ``RadioRegion`` would hold is refused with
    the first such record's error.
    """
    gts = annotations if isinstance(annotations, Annotations) \
        else Annotations.from_records(annotations)
    gts = gts.take(gts.categories == "person")
    gts = gts.grouped(gts.named_ids())
    x, y, w, h = gts.boxes.T
    draw = draw_region_noise(noise, np.minimum(w, h), np.random.default_rng(noise.seed))
    rank = np.arange(len(gts)) - np.searchsorted(gts.image, gts.image)  # in the image
    regions = Regions(gts.ids, gts.image, x + w / 2.0 + draw.dx, y + h / 2.0 + draw.dy,
                      draw.edge, np.array(list(map("r{}".format, rank.tolist())), dtype=object))
    if not regions.valid():
        regions.records()  # raises the first refused row's ``RadioRegion`` error
    return regions


# Ground-truth filters: a mask over ``Annotations`` columns.

def reasonable_filter(gts: Annotations) -> np.ndarray:
    """Caltech 'reasonable' protocol: taller than 60 px, under 35% occluded."""
    return (gts.height > 60.0) & (gts.occlusion < 0.35)


def all_filter(gts: Annotations) -> np.ndarray:
    """Caltech 'all' protocol: taller than 20 px, under 80% occluded."""
    return (gts.height > 20.0) & (gts.occlusion < 0.80)


GT_FILTERS = {
    "none": lambda gts: True,
    "reasonable": reasonable_filter,
    "all": all_filter,
}
