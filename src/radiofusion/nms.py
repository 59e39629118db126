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

Every function takes a whole world in one call and works image by image
in image-id order (``world.split_world``): detections name their image
and ``region_images`` names the image of each region, so a call on one
image is a world of one image. The IoU arithmetic is batched across
images. Suppression walks every image's greedy order in lockstep: each
round keeps at most one more box per image, and one
``geometry.iou_arrays`` call on the flat (box, newly kept box) pairs of the
whole world marks what those boxes suppress, so only kept rows are
computed and memory stays linear in the detections. Association stacks
the images by region count. The skip order, the smaller-region-id tie rule
and the fallback pass run image by image in Python on the precomputed
boolean rows.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from .errors import InvalidInputError
from .fusion import Detection
from .geometry import iou_arrays
from .imaging import RadioRegion
from .world import Image, per_detection, score_order, split_world


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


def _greedy(
    groups: list[list[Detection]],
    threshold: float,
    known: list[set[str]],
    require_region: bool,
) -> tuple[list[list[int]], list[set[str]]]:
    """Pass one on every group (image) at once: per group, the kept indices
    in score order and the region ids they claimed.

    A box is skipped when it overlaps a kept box of its group at or above
    the threshold, else when its known region is already used, else when it
    has no known region and one is required. The walks advance in lockstep:
    each round keeps at most one more box per group, then one ``iou_arrays``
    call on the flat (box, newly kept box) pairs of those groups marks the
    boxes the new ones suppress.
    """
    sizes = [len(dets) for dets in groups]
    starts = list(accumulate(sizes, initial=0))
    boxes = np.array([det.bbox for dets in groups for det in dets], dtype=float).reshape(-1, 4)
    suppressed = np.zeros(len(boxes), dtype=bool)
    # The world's score order, stably regrouped: each group's walk, as group-local indices.
    owner = np.repeat(np.arange(len(groups)), sizes)
    ranked = score_order([det.score for dets in groups for det in dets])
    ranked = ranked[np.argsort(owner[ranked], kind="stable")]
    local = (ranked - np.repeat(starts[:-1], sizes)).tolist()
    orders = [iter(local[starts[m]:starts[m + 1]]) for m in range(len(groups))]
    kept: list[list[int]] = [[] for _ in groups]
    used: list[set[str]] = [set() for _ in groups]
    walking = [m for m, size in enumerate(sizes) if size]
    while walking:
        fresh = []
        for m in walking:
            for i in orders[m]:
                if suppressed[starts[m] + i]:
                    continue
                # An id that names no region in this image constrains nothing.
                rid = groups[m][i].region_id if groups[m][i].region_id in known[m] else None
                if rid is not None and rid in used[m]:
                    continue
                if rid is None and require_region:
                    continue
                kept[m].append(i)
                if rid is not None:
                    used[m].add(rid)
                fresh.append(m)
                break
        if fresh:
            # Every box of each image that kept one this round, against that box.
            first = np.array([starts[m] for m in fresh])
            counts = np.array([sizes[m] for m in fresh])
            shift = np.repeat(first + counts - np.cumsum(counts), counts)
            targets = np.arange(shift.size) + shift
            new = np.repeat(first + np.array([kept[m][-1] for m in fresh]), counts)
            suppressed[targets[iou_arrays(boxes[targets], boxes[new]) >= threshold]] = True
        walking = fresh
    return kept, used


def standard_nms(detections: list[Detection], iou_threshold: float) -> list[Detection]:
    """Plain greedy suppression within each image: keep a box iff it
    overlaps every kept box below the threshold. Output is in image-id
    order, descending score within an image."""
    groups = [image.detections for image in split_world(detections, [], [])]
    kept, _ = _greedy(groups, iou_threshold, [set()] * len(groups), require_region=False)
    return [dets[i] for dets, chosen in zip(groups, kept) for i in chosen]


def associate_regions(
    detections: list[Detection],
    regions: list[RadioRegion],
    mode: str = "one_stage",
    *,
    region_images: Sequence[str] = (),
) -> list[Detection]:
    """Fill in each detection's region id from the regions of its image.

    Detections born from region proposals (``two_stage``) know their
    region and keep it; missing provenance there is an input error. Otherwise
    (``one_stage``) the region with the highest positive IoU against the
    detection box wins, ties going to the smaller region id; a detection
    overlapping no region gets none. Output is in image-id order, input
    order within an image.
    """
    if mode not in ("one_stage", "two_stage"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    images = split_world(detections, regions, region_images)
    if mode == "two_stage":
        if any(det.region_id is None for det in detections):
            raise InvalidInputError("two_stage association requires region provenance")
        return [det for image in images for det in image.detections]

    # Regions sorted by id: argmax takes the first of tied IoUs, the smaller id.
    images = [image._replace(regions=sorted(image.regions, key=lambda r: r.identifier))
              for image in images]

    def best(dets: list[Detection], region_boxes: np.ndarray) -> np.ndarray:
        boxes = np.array([det.bbox for det in dets], dtype=float).reshape(-1, 1, 4)
        overlap = iou_arrays(boxes, region_boxes)
        return np.where(overlap.max(axis=-1) > 0.0, overlap.argmax(axis=-1), -1)

    return [
        replace(det, region_id=image.regions[j].identifier if j >= 0 else None)
        for image, picks in zip(images, per_detection(images, best, -1))
        for det, j in zip(image.detections, picks)
    ]


def _fallback(image: Image, kept: list[int], used: set[str], floor: float) -> list[Detection]:
    """Pass two on one image: one box for every region pass one left empty,
    its best suppressed candidate, else the region's own square at ``floor``."""
    kept_idx = set(kept)
    candidates: dict[str | None, list[int]] = {}
    for i, det in enumerate(image.detections):
        if i not in kept_idx:
            candidates.setdefault(det.region_id, []).append(i)
    revived: list[Detection] = []
    for region in image.regions:
        if region.identifier in used:
            continue
        if region.identifier in candidates:
            best = max(candidates[region.identifier],
                       key=lambda i: (image.detections[i].score, -i))
            revived.append(image.detections[best])
        else:
            revived.append(Detection(image_id=image.image_id, bbox=region.to_bbox(),
                                     score=floor, region_id=region.identifier))
        used.add(region.identifier)
    return revived


def constrained_nms(
    detections: list[Detection],
    regions: list[RadioRegion] | None,
    cfg: NmsConfig,
    *,
    region_images: Sequence[str] = (),
) -> list[Detection]:
    """Greedy NMS where each radio region may produce at most one box.

    ``regions=None`` disables the constraint entirely, reducing to
    ``standard_nms``. With ``require_region`` a detection carrying no
    region id (or an id naming no region of its image) is dropped, since
    the radio asserts nobody is there; the permissive setting keeps such
    detections subject only to the overlap test. The fallback pass runs for
    enabled ``two_stage`` configurations and guarantees one detection per
    region; an anchor box is labelled with its region's image.

    Output is in image-id order: pass one's boxes in score order, then the
    fallback's in region order.
    """
    if regions is None:
        return standard_nms(detections, cfg.iou_threshold)

    images = split_world(detections, regions, region_images)
    fallback = cfg.mode == "two_stage" and cfg.enable_fallback_loop
    known = [{region.identifier for region in image.regions} for image in images]
    kept, used = _greedy([image.detections for image in images], cfg.iou_threshold,
                         known, cfg.require_region)
    output: list[Detection] = []
    for image, chosen, claimed in zip(images, kept, used):
        output.extend(image.detections[i] for i in chosen)
        if fallback:
            output.extend(_fallback(image, chosen, claimed, cfg.fallback_floor_score))
    return output
