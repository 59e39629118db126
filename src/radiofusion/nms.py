"""Non-maximum suppression with a one-detection-per-radio-region constraint.

The constrained variant runs two passes. The first pass is greedy NMS by
descending score with one extra rule: a detection whose region was already
claimed by a kept detection is skipped, so every localization yields at
most one box. The second pass, available when detections carry region
provenance (proposal-born detections), revives the best suppressed
candidate of every region that ended up empty, or falls back to the
region's own square at a floor score, guaranteeing exactly one detection
per region. Skip conditions in pass one are checked in a fixed order
(overlap, region already used, missing region), which pins down the
deterministic output.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import InvalidInputError
from .fusion import Detection, score_order
from .geometry import iou
from .imaging import RadioRegion

__all__ = [
    "NmsConfig",
    "iou",
    "standard_nms",
    "associate_regions",
    "constrained_nms",
]


@dataclass(frozen=True)
class NmsConfig:
    """Suppression thresholds and loop behavior."""

    iou_threshold: float = 0.5
    mode: str = "two_stage"
    enable_fallback_loop: bool = True
    fallback_floor_score: float = 0.01
    require_region: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.iou_threshold <= 1.0:
            raise InvalidInputError("iou_threshold must be in [0, 1]")
        if self.mode not in ("one_stage", "two_stage"):
            raise InvalidInputError(f"unknown mode {self.mode!r}")
        if not 0.0 <= self.fallback_floor_score <= 1.0:
            raise InvalidInputError("fallback_floor_score must be in [0, 1]")


def standard_nms(detections: list[Detection], iou_threshold: float) -> list[Detection]:
    """Plain greedy suppression: keep a box iff it overlaps every kept box
    below the threshold. Output is in descending-score order."""
    kept: list[Detection] = []
    for i in score_order([det.score for det in detections]):
        candidate = detections[i]
        if all(iou(candidate.bbox, k.bbox) < iou_threshold for k in kept):
            kept.append(candidate)
    return kept


def associate_regions(
    detections: list[Detection],
    regions: list[RadioRegion],
    mode: str = "one_stage",
) -> list[Detection]:
    """Fill in each detection's region id.

    Detections born from region proposals (``two_stage``) know their
    region and keep it; missing provenance there is an input error. Otherwise
    (``one_stage``) the region with the highest positive IoU against the
    detection box wins, ties going to the smaller region id; a detection
    overlapping no region gets none.
    """
    if mode not in ("one_stage", "two_stage"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    if mode == "two_stage":
        for det in detections:
            if det.region_id is None:
                raise InvalidInputError("two_stage association requires region provenance")
        return list(detections)

    associated = []
    for det in detections:
        best_id = None
        best_iou = 0.0
        for region in regions:
            overlap = iou(det.bbox, region.to_bbox())
            if overlap > best_iou or (
                overlap == best_iou and overlap > 0.0
                and best_id is not None and region.identifier < best_id
            ):
                best_id, best_iou = region.identifier, overlap
        associated.append(replace(det, region_id=best_id if best_iou > 0.0 else None))
    return associated


def constrained_nms(
    detections: list[Detection],
    regions: list[RadioRegion] | None,
    cfg: NmsConfig,
    image_id: str | None = None,
) -> list[Detection]:
    """Greedy NMS where each radio region may produce at most one box.

    ``regions=None`` disables the constraint entirely, reducing to
    ``standard_nms``. With ``require_region`` a detection carrying no
    region id (or an id naming no region in the list) is dropped, since the
    radio asserts nobody is there; the permissive setting keeps such
    detections subject only to the overlap test. The fallback pass runs for
    enabled ``two_stage`` configurations and guarantees one detection per
    region.

    ``image_id`` labels fallback anchor boxes for images that produced no
    detections at all; it defaults to the first detection's image id.
    """
    if regions is None:
        return standard_nms(detections, cfg.iou_threshold)

    known = {region.identifier for region in regions}
    used: set[str] = set()
    kept: list[Detection] = []
    kept_idx: set[int] = set()
    for i in score_order([det.score for det in detections]):
        candidate = detections[i]
        if any(iou(candidate.bbox, k.bbox) >= cfg.iou_threshold for k in kept):
            continue
        # An id that names no region in this image constrains nothing.
        rid = candidate.region_id if candidate.region_id in known else None
        if rid is not None and rid in used:
            continue
        if rid is None and cfg.require_region:
            continue
        kept.append(candidate)
        kept_idx.add(i)
        if rid is not None:
            used.add(rid)

    if cfg.mode == "two_stage" and cfg.enable_fallback_loop:
        if image_id is None:
            image_id = detections[0].image_id if detections else ""
        for region in regions:
            if region.identifier in used:
                continue
            candidates = [
                i for i, det in enumerate(detections)
                if i not in kept_idx and det.region_id == region.identifier
            ]
            if candidates:
                best = max(candidates, key=lambda i: (detections[i].score, -i))
                kept.append(detections[best])
            else:
                kept.append(
                    Detection(
                        image_id=image_id,
                        bbox=region.to_bbox(),
                        score=cfg.fallback_floor_score,
                        region_id=region.identifier,
                    )
                )
            used.add(region.identifier)
    return kept
