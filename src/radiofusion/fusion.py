"""Confidence revision and region proposals from radio regions.

Two fusion routes are provided. Confidence revision computes an overlap
decay factor ``gamma`` per detection (cell-normalized for grid-cell
detectors, region-normalized for box detectors) and rescales the score as
``(1 - lam + lam * gamma) * score``, so ``lam`` expresses how much the
radio localization is trusted. Region proposals expand each square region
into multi-scale, multi-ratio anchor boxes that keep the region center and
identifier; a lightweight scoring hook stands in for the trained
classification / regression head that a full detector would apply to them.

Both stages take a whole world in one call: ``world.Detections`` and
``world.Regions`` columns whose rows name their image. Revision scores
every (detection, region) pair of an image (``world.pairs``) in one
``geometry.intersect_arrays`` call, the box-array entry to the corner
kernel that NMS and matching run; proposals build and score every anchor of
the world at once and return them as columns.
Every float equals the scalar formula's bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .errors import InvalidInputError
from .geometry import intersect_arrays, rect_areas
from .world import ANCHOR_RATIOS, ANCHOR_SCALES, Detections, Regions, pairs, split


def coverage(a: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    """Share of each box ``b`` that box ``a`` covers, capped at 1.

    Broadcast ``(..., 4)`` arrays; a ``b`` of zero area is an input error.
    """
    area = rect_areas(b)
    if (area <= 0).any():
        raise InvalidInputError(f"degenerate {what}")
    return np.minimum(intersect_arrays(a, b) / area, 1.0)


def revise_detections(detections: Detections, regions: Regions, lam: float,
                      mode: str = "two_stage") -> Detections:
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
    dets, regs = split(detections, regions)
    det, reg = pairs(dets.image, regs.image, len(dets.ids))
    boxes = regs.boxes()
    values = (coverage(boxes[reg], dets.cells[det], "cell") if mode == "one_stage"
              else coverage(dets.boxes[det], boxes[reg], "region"))
    gamma = np.zeros(len(dets))
    np.maximum.at(gamma, det, values)
    return replace(dets, scores=(1.0 - lam + lam * gamma) * dets.scores)


def anchor_boxes(regions: Regions) -> np.ndarray:
    """``(len(regions), 9, 4)`` anchors: ``ANCHOR_SCALES`` x ``ANCHOR_RATIOS``, scale-major.

    Every anchor is centered on its region, has area ``(scale * edge)^2``
    and height/width ratio ``ratio``.
    """
    cx, cy, edge = regions.center_x, regions.center_y, regions.edge
    roots = np.sqrt(ANCHOR_RATIOS)
    side = (np.array(ANCHOR_SCALES) * edge[:, None])[:, :, None]
    w = side / roots
    h = side * roots
    boxes = np.stack([cx[:, None, None] - w / 2.0, cy[:, None, None] - h / 2.0, w, h], axis=-1)
    return boxes.reshape(len(regions), len(ANCHOR_SCALES) * len(ANCHOR_RATIOS), 4)


def proposals_to_detections(regions: Regions) -> Detections:
    """Emulate the proposal classification head, image by image.

    With no trained head available, each anchor becomes a detection whose
    score is its region-normalized overlap with the region it was built
    from, which favors anchors that stay inside the localization. The region
    id rides along for per-region suppression downstream. Output is in
    image-id order, region order within an image.
    """
    regs = regions.grouped(regions.ids)
    anchors = anchor_boxes(regs)
    scores = coverage(anchors, regs.boxes()[:, None], "region")
    per = anchors.shape[1]
    return Detections(regs.ids, np.repeat(regs.image, per), anchors.reshape(-1, 4),
                      scores.ravel(), np.repeat(regs.region_ids, per),
                      np.full((len(regs) * per, 4), math.nan))
