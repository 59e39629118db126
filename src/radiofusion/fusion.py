"""Confidence revision and region proposals from radio regions.

Two fusion routes are provided. Confidence revision computes an overlap
decay factor ``gamma`` per detection (cell-normalized for grid-cell
detectors, region-normalized for box detectors) and rescales the score as
``(1 - lam + lam * gamma) * score``, so ``lam`` expresses how much the
radio localization is trusted. Region proposals expand each square region
into multi-scale, multi-ratio anchor boxes that keep the region center and
identifier; a lightweight scoring hook stands in for the trained
classification / regression head that a full detector would apply to them.

Both stages take a whole world in one call: ``world.Detections`` columns
whose rows name their image, and ``region_images`` naming the image of each
region. Revision scores every (detection, region) pair of an image
(``world.pairs``) in one ``geometry.intersect_arrays`` call; proposals build
and score every anchor of the world at once and return them as columns.
Every float equals the scalar formula's bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import replace

import numpy as np

from .errors import InvalidInputError
from .geometry import intersect_arrays, rect_areas
from .imaging import ANCHOR_RATIOS, ANCHOR_SCALES, RadioRegion
from .world import Detection, Detections, pairs, split  # noqa: F401 (Detection: public here)


def coverage(a: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    """Share of each box ``b`` that box ``a`` covers, capped at 1.

    Broadcast ``(..., 4)`` arrays; a ``b`` of zero area is an input error.
    """
    area = rect_areas(b)
    if (area <= 0).any():
        raise InvalidInputError(f"degenerate {what}")
    return np.minimum(intersect_arrays(a, b) / area, 1.0)


def revise_detections(detections: Detections, regions: list[RadioRegion], lam: float,
                      mode: str = "two_stage", *, region_images: Sequence[str] = ()) -> Detections:
    """Apply confidence revision against the regions of each image.

    Each detection takes the most favorable decay factor over its image's
    regions (0 when there are none, so it decays to ``(1 - lam) * score``),
    so a score never grows. Output is in image-id order, input order within
    an image. One-stage mode requires a backbone cell on every detection.
    """
    if not 0.0 <= lam <= 1.0:  # also rejects NaN
        raise InvalidInputError(f"lam={lam} outside [0, 1]")
    if mode not in ("one_stage", "two_stage"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    if mode == "one_stage" and np.isnan(detections.cells).any():
        raise InvalidInputError("one_stage revision requires a cell on every detection")
    dets, owner, boxes, _ = split(detections, regions, region_images)
    det, reg = pairs(dets.image, owner, len(dets.ids))
    values = (coverage(boxes[reg], dets.cells[det], "cell") if mode == "one_stage"
              else coverage(dets.boxes[det], boxes[reg], "region"))
    gamma = np.zeros(len(dets))
    np.maximum.at(gamma, det, values)
    return replace(dets, scores=(1.0 - lam + lam * gamma) * dets.scores)


def anchor_boxes(regions: Sequence[RadioRegion], scales: Sequence[float],
                 ratios: Sequence[float]) -> np.ndarray:
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


def proposals_to_detections(regions: list[RadioRegion], *,
                            region_images: Sequence[str] = ()) -> Detections:
    """Emulate the proposal classification head, image by image.

    With no trained head available, each anchor becomes a detection whose
    score is its region-normalized overlap with the region it was built
    from, which favors anchors that stay inside the localization. The region
    id rides along for per-region suppression downstream. Output is in
    image-id order, region order within an image.
    """
    empty, owner, boxes, ids = split(Detections.from_records([]), regions, region_images)
    order = np.argsort(owner, kind="stable")
    anchors = anchor_boxes([regions[k] for k in order.tolist()], ANCHOR_SCALES, ANCHOR_RATIOS)
    scores = coverage(anchors, boxes[order, None], "region")
    per = anchors.shape[1]
    return Detections(empty.ids, np.repeat(owner[order], per), anchors.reshape(-1, 4),
                      scores.ravel(), np.repeat(ids[order], per),
                      np.full((order.size * per, 4), math.nan))
