"""Confidence revision and region proposals from radio regions.

Two fusion routes are provided. Confidence revision computes an overlap
decay factor ``gamma`` per detection (cell-normalized for grid-cell
detectors, region-normalized for box detectors) and rescales the score as
``(1 - lam + lam * gamma) * score``, so ``lam`` expresses how much the
radio localization is trusted. Region proposals expand each square region
into multi-scale, multi-ratio anchor boxes that keep the region center and
identifier; a lightweight scoring hook stands in for the trained
classification / regression head that a full detector would apply to them.

Both stages take a whole world in one call: detections name their image,
and ``region_images`` names the image of each region, so a call on one
image is a world of one image. ``world.split_world`` cuts the world into
images in image-id order. The overlap arithmetic is batched across images,
so a world of tiny images costs a few kernel calls, not one per image:
revision stacks the images with the same number of regions into one
``geometry.intersect_arrays`` call on their detections against their
regions, and proposals build and score every anchor of the world in one
call. Every float equals the scalar formula's bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInputError
from .geometry import Rect, intersect_arrays, rect_areas, require_box
from .imaging import RadioRegion
from .world import per_detection, split_world


@dataclass(frozen=True)
class Detection:
    """One scored bounding box, optionally tagged with its birth region."""

    image_id: str
    bbox: Rect
    score: float
    region_id: str | None = None
    cell: Rect | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:  # also rejects NaN
            raise InvalidInputError(f"score {self.score} outside [0, 1]")
        require_box("detection", self.bbox)
        if self.cell is not None:
            require_box("detection cell", self.cell)
        _, _, w, h = self.bbox
        if w < 0 or h < 0:
            raise InvalidInputError(f"bbox extents must be >= 0, got {self.bbox}")


def coverage(a: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    """Share of each box ``b`` that box ``a`` covers, capped at 1.

    Broadcast ``(..., 4)`` arrays; a ``b`` of zero area is an input error.
    """
    area = rect_areas(b)
    if (area <= 0).any():
        raise InvalidInputError(f"degenerate {what}")
    return np.minimum(intersect_arrays(a, b) / area, 1.0)


def revise_detections(
    detections: list[Detection],
    regions: list[RadioRegion],
    lam: float,
    mode: str = "two_stage",
    *,
    region_images: Sequence[str] = (),
) -> list[Detection]:
    """Apply confidence revision against the regions of each image.

    Each detection takes the most favorable decay factor over its image's
    regions (0 when there are none, so a detection covered by no region
    decays to ``(1 - lam) * score``). Output is in image-id order, input
    order within an image; inputs are not mutated. ``lam = 0`` leaves the
    scores untouched and ``lam = 1`` multiplies them by ``gamma``, so a score
    never grows. One-stage mode requires every detection to carry its
    backbone cell rectangle.
    """
    if not 0.0 <= lam <= 1.0:  # also rejects NaN
        raise InvalidInputError(f"lam={lam} outside [0, 1]")
    if mode not in ("one_stage", "two_stage"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    if mode == "one_stage" and any(det.cell is None for det in detections):
        raise InvalidInputError("one_stage revision requires a cell on every detection")
    images = split_world(detections, regions, region_images)

    def gammas(dets: list[Detection], region_boxes: np.ndarray) -> np.ndarray:
        if mode == "one_stage":
            cells = np.array([det.cell for det in dets], dtype=float).reshape(-1, 1, 4)
            return coverage(region_boxes, cells, "cell").max(axis=-1)
        boxes = np.array([det.bbox for det in dets], dtype=float).reshape(-1, 1, 4)
        return coverage(boxes, region_boxes, "region").max(axis=-1)

    return [
        replace(det, score=(1.0 - lam + lam * gamma) * det.score)
        for image, values in zip(images, per_detection(images, gammas, 0.0))
        for det, gamma in zip(image.detections, values)
    ]


def anchor_boxes(
    regions: Sequence[RadioRegion],
    scales: Sequence[float],
    ratios: Sequence[float],
) -> np.ndarray:
    """``(len(regions), len(scales) * len(ratios), 4)`` anchors, scale-major.

    Every anchor is centered on its region, has area ``(scale * edge)^2``
    and height/width ratio ``ratio``.
    """
    if not scales or not ratios:
        raise InvalidInputError("scales and ratios must be non-empty")
    if any(s <= 0 for s in scales) or any(r <= 0 for r in ratios):
        raise InvalidInputError("scales and ratios must be positive")
    cx, cy, edge = np.array([(region.center_x, region.center_y, region.edge)
                             for region in regions], dtype=float).reshape(-1, 3).T
    roots = np.array([math.sqrt(ratio) for ratio in ratios])
    side = (np.array(scales, dtype=float) * edge[:, None])[:, :, None]
    w = side / roots
    h = side * roots
    boxes = np.stack([cx[:, None, None] - w / 2.0, cy[:, None, None] - h / 2.0, w, h], axis=-1)
    return boxes.reshape(len(regions), len(scales) * len(ratios), 4)


ANCHOR_SCALES = (0.75, 1.0, 1.25)
ANCHOR_RATIOS = (1.0, 2.0, 3.0)


def proposals_to_detections(
    regions: list[RadioRegion],
    *,
    region_images: Sequence[str] = (),
) -> list[Detection]:
    """Emulate the proposal classification head, image by image.

    With no trained head available, each anchor becomes a detection whose
    score is its region-normalized overlap with the region it was built
    from, which favors anchors that stay inside the localization. The
    region identifier rides along so the detections can be suppressed per
    region downstream. Output is in image-id order, region order within an
    image.
    """
    images = split_world([], regions, region_images)
    owned = [(image.image_id, region) for image in images for region in image.regions]
    world = [region for _, region in owned]
    anchors = anchor_boxes(world, ANCHOR_SCALES, ANCHOR_RATIOS)
    region_boxes = np.array([region.to_bbox() for region in world]).reshape(-1, 1, 4)
    scores = coverage(anchors, region_boxes, "region")
    # Region by region, so no float list of the whole world lives beside the records.
    return [
        Detection(image_id=owner, bbox=tuple(box), score=score, region_id=region.identifier)
        for (owner, region), boxes, values in zip(owned, anchors, scores)
        for box, score in zip(boxes.tolist(), values.tolist())
    ]
