"""Confidence revision and region proposals from radio regions.

Two fusion routes are provided. Confidence revision computes an overlap
decay factor ``gamma`` per detection (cell-normalized for grid-cell
detectors, region-normalized for box detectors) and rescales the score as
``(1 - lam + lam * gamma) * score``, so ``lam`` expresses how much the
radio localization is trusted. Region proposals expand each square region
into multi-scale, multi-ratio anchor boxes that keep the region center and
identifier; a lightweight scoring hook stands in for the trained
classification / regression head that a full detector would apply to them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import InvalidInputError, require_finite
from .geometry import Rect, intersect_area, rect_area
from .imaging import RadioRegion


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


def score_order(scores: list[float]) -> list[int]:
    """Indices by descending score, stable on the input position."""
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))


@dataclass(frozen=True)
class Proposal:
    """One anchor box generated from a radio region."""

    bbox: Rect
    region_id: str
    scale_index: int
    ratio_index: int

    def __post_init__(self) -> None:
        if rect_area(self.bbox) <= 0:
            raise InvalidInputError("proposal bbox must have positive area")


def decay_one_stage(region: RadioRegion, cell: Rect) -> float:
    """Overlap of the region with a backbone grid cell, normalized by the cell."""
    cell_area = rect_area(cell)
    if cell_area <= 0:
        raise InvalidInputError(f"degenerate cell {cell}")
    return min(intersect_area(region.to_bbox(), cell) / cell_area, 1.0)


def decay_two_stage(bbox: Rect, region: RadioRegion) -> float:
    """Overlap of a detection box with the region, normalized by the region."""
    region_area = rect_area(region.to_bbox())
    if region_area <= 0:
        raise InvalidInputError(f"degenerate region {region}")
    return min(intersect_area(bbox, region.to_bbox()) / region_area, 1.0)


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
) -> list[Detection]:
    """Apply confidence revision against a set of regions.

    Each detection takes the most favorable decay factor over all regions
    (0 when there are none, so a detection covered by no region decays to
    ``(1 - lam) * score``). Input order is preserved; inputs are not
    mutated. One-stage mode requires every detection to carry its backbone
    cell rectangle.
    """
    if mode not in ("one_stage", "two_stage"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    revised = []
    for det in detections:
        if mode == "one_stage":
            if det.cell is None:
                raise InvalidInputError("one_stage revision requires a cell on every detection")
            gammas = (decay_one_stage(region, det.cell) for region in regions)
        else:
            gammas = (decay_two_stage(det.bbox, region) for region in regions)
        gamma = max(gammas, default=0.0)
        revised.append(replace(det, score=revise_score(det.score, gamma, lam)))
    return revised


def generate_proposals(
    region: RadioRegion,
    scales: list[float],
    ratios: list[float],
) -> list[Proposal]:
    """Expand a region into one anchor per (scale, ratio) combination.

    Every anchor is centered on the region, has area ``(scale * edge)^2``
    and height/width ratio ``ratio``, and carries the region identifier.
    """
    if not scales or not ratios:
        raise InvalidInputError("scales and ratios must be non-empty")
    if any(s <= 0 for s in scales) or any(r <= 0 for r in ratios):
        raise InvalidInputError("scales and ratios must be positive")
    proposals = []
    for si, scale in enumerate(scales):
        side = scale * region.edge
        for ri, ratio in enumerate(ratios):
            w = side / math.sqrt(ratio)
            h = side * math.sqrt(ratio)
            bbox = (region.center_x - w / 2.0, region.center_y - h / 2.0, w, h)
            proposals.append(Proposal(bbox=bbox, region_id=region.identifier,
                                      scale_index=si, ratio_index=ri))
    return proposals


DEFAULT_SCALES = (0.75, 1.0, 1.25)
DEFAULT_RATIOS = (1.0, 2.0, 3.0)


def proposals_to_detections(
    regions: list[RadioRegion],
    image_id: str,
    scales: list[float] = DEFAULT_SCALES,
    ratios: list[float] = DEFAULT_RATIOS,
    score_mode: str = "overlap",
) -> list[Detection]:
    """Emulate the proposal classification head for one image.

    With no trained head available, each anchor becomes a detection whose
    score is its region-normalized overlap with its own birth region
    (``score_mode="overlap"``), which favors anchors that stay inside the
    localization; ``score_mode="constant"`` scores every anchor 1.0. The
    region identifier rides along so the detections can be suppressed per
    region downstream.
    """
    if score_mode not in ("overlap", "constant"):
        raise InvalidInputError(f"unknown score_mode {score_mode!r}")
    by_id = {region.identifier: region for region in regions}
    detections = []
    for region in regions:
        for prop in generate_proposals(region, list(scales), list(ratios)):
            if score_mode == "overlap":
                score = decay_two_stage(prop.bbox, by_id[prop.region_id])
            else:
                score = 1.0
            detections.append(
                Detection(image_id=image_id, bbox=prop.bbox, score=score,
                          region_id=prop.region_id)
            )
    return detections
