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
image is a world of one image. ``split_world`` cuts the world into images
in image-id order. The overlap arithmetic is batched across images, so a
world of tiny images costs a few kernel calls, not one per image: revision
stacks the images with the same number of regions into one
``geometry.intersect_arrays`` call on their detections against their
regions, and proposals build and score every anchor of the world in one
call. Every float equals the scalar formula's bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, require_finite
from .geometry import Rect, intersect_arrays, rect_areas
from .imaging import RadioRegion
from .sim_regions import group_by_image


@dataclass(frozen=True)
class Detection:
    """One scored bounding box, optionally tagged with its birth region."""

    image_id: str
    bbox: Rect
    score: float
    region_id: str | None = None
    cell: Rect | None = None

    def __post_init__(self) -> None:
        require_finite("detection", self.score, *self.bbox, *(self.cell or ()))
        if not 0.0 <= self.score <= 1.0:
            raise InvalidInputError(f"score {self.score} outside [0, 1]")
        _, _, w, h = self.bbox
        if w < 0 or h < 0:
            raise InvalidInputError(f"bbox extents must be >= 0, got {self.bbox}")


def score_order(scores: Sequence[float] | np.ndarray) -> np.ndarray:
    """Indices by descending score, stable on the input position."""
    return np.argsort(-np.asarray(scores, dtype=float), kind="stable")


class Image(NamedTuple):
    """One image of a stage call: its id, detections and regions."""

    image_id: str
    detections: list[Detection]
    regions: list[RadioRegion]


def split_world(
    detections: Sequence[Detection],
    regions: Sequence[RadioRegion],
    region_images: Sequence[str],
) -> list[Image]:
    """The images of a stage call in image-id order, records in input order.

    Detections name their image and ``region_images`` names the image of
    each region, one id per region (any other count is an input error).
    """
    if len(region_images) != len(regions):
        raise InvalidInputError(f"{len(region_images)} region image ids for {len(regions)} regions")
    dets = group_by_image(detections)
    regs: dict[str, list[RadioRegion]] = {}
    for owner, region in zip(region_images, regions):
        regs.setdefault(owner, []).append(region)
    return [Image(key, dets.get(key, []), regs.get(key, []))
            for key in sorted(dets.keys() | regs.keys())]


def per_detection(
    images: list[Image],
    kernel: Callable[[list[Detection], np.ndarray], np.ndarray],
    default: float,
) -> list[list]:
    """One value per detection against the regions of its image, per image.

    Images with the same number ``r > 0`` of regions share one
    ``kernel(detections, region_boxes)`` call: their detections in image
    order and the ``(m, r, 4)`` stack of each one's region boxes, one value
    per detection back. Detections of an image without regions get
    ``default``.
    """
    values = [[default] * len(image.detections) for image in images]
    buckets: dict[int, list[int]] = {}
    for m, image in enumerate(images):
        if image.regions:
            buckets.setdefault(len(image.regions), []).append(m)
    for r, members in buckets.items():
        region_boxes = np.array([[region.to_bbox() for region in images[m].regions]
                                 for m in members]).reshape(len(members), r, 4)
        owner = np.repeat(np.arange(len(members)), [len(values[m]) for m in members])
        dets = [det for m in members for det in images[m].detections]
        rows = kernel(dets, region_boxes[owner]).tolist()
        start = 0
        for m in members:
            values[m] = rows[start:start + len(values[m])]
            start += len(values[m])
    return values


def coverage(a: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    """Share of each box ``b`` that box ``a`` covers, capped at 1.

    Broadcast ``(..., 4)`` arrays; a ``b`` of zero area is an input error.
    """
    area = rect_areas(b)
    if (area <= 0).any():
        raise InvalidInputError(f"degenerate {what}")
    return np.minimum(intersect_arrays(a, b) / area, 1.0)


def decay_one_stage(region: RadioRegion, cell: Rect) -> float:
    """Overlap of the region with a backbone grid cell, normalized by the cell."""
    return float(coverage(np.array(region.to_bbox()), np.array(cell, dtype=float), "cell"))


def decay_two_stage(bbox: Rect, region: RadioRegion) -> float:
    """Overlap of a detection box with the region, normalized by the region."""
    return float(coverage(np.array(bbox, dtype=float), np.array(region.to_bbox()), "region"))


def revise_score(score: float, gamma: float, lam: float) -> float:
    """Rescale a confidence score by the radio decay factor.

    ``lam = 0`` leaves the detector untouched; ``lam = 1`` multiplies the
    score by ``gamma`` directly. The result never exceeds the input score.
    """
    for name, value in (("score", score), ("gamma", gamma), ("lam", lam)):
        if not 0.0 <= value <= 1.0:
            raise InvalidInputError(f"{name}={value} outside [0, 1]")
    return (1.0 - lam + lam * gamma) * score


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
    order within an image; inputs are not mutated. One-stage mode requires
    every detection to carry its backbone cell rectangle.
    """
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
        replace(det, score=revise_score(det.score, gamma, lam))
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


def generate_proposals(
    region: RadioRegion,
    scales: list[float],
    ratios: list[float],
) -> list[Rect]:
    """Expand a region into one anchor box per (scale, ratio), scale-major."""
    return [tuple(box) for box in anchor_boxes([region], scales, ratios)[0].tolist()]


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
