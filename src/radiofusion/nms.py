"""Non-maximum suppression with a one-detection-per-radio-region constraint.

The constrained variant runs two passes. The first pass is greedy NMS by
descending score with one extra rule: a detection whose region was already
claimed by a kept detection is skipped, so every localization yields at
most one box. The second pass, for proposal-born detections, visits only
the images where pass one left a region empty and gives each such region
its best suppressed candidate or its own square at a floor score, so every
region gets exactly one detection. Skip conditions in pass one are checked
in a fixed order (overlap, region already used, missing region), which
pins down the deterministic output.

Every function takes a whole world in one call, as ``world.Detections``
and ``world.Regions`` columns whose rows name their image, and works image
by image in image-id order (``world.split``). Suppression walks every
image's greedy order in lockstep: each round keeps at most one more box per image, and one
``geometry.iou_arrays`` call on the (box, newly kept box) pairs of the world
marks what those boxes suppress, so memory stays linear in the detections.
Association scores every (detection, region) pair of an image in one call
(``world.pairs``). The skip order, the tie rules and the fallback pass run
in Python; every output is a selection of input rows and region squares.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInputError
from .geometry import iou_arrays
from .world import Detections, Regions, image_score_order, pairs, split


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


def _greedy(dets: Detections, threshold: float, known: list[set[str]],
            require_region: bool) -> tuple[list[list[int]], list[set[str]]]:
    """Pass one on every image of ``dets`` (rows in image-id order) in
    lockstep: per image, the kept rows in score order and the region ids
    they claimed. A box is skipped when it overlaps a kept box of its image
    at or above the threshold, else when its known region is already used,
    else when it has no known region and one is required."""
    sizes = np.bincount(dets.image, minlength=len(dets.ids))
    starts = np.cumsum(sizes) - sizes
    suppressed = np.zeros(len(dets), dtype=bool)
    ranked = image_score_order(dets.image, dets.scores).tolist()  # each image's walk
    orders = [iter(ranked[a:a + n]) for a, n in zip(starts.tolist(), sizes.tolist())]
    region_ids = dets.region_ids.tolist()
    kept: list[list[int]] = [[] for _ in dets.ids]
    used: list[set[str]] = [set() for _ in dets.ids]
    walking = np.flatnonzero(sizes).tolist()
    while walking:
        fresh = []
        for m in walking:
            for i in orders[m]:
                if suppressed[i]:
                    continue
                # An id that names no region in this image constrains nothing.
                rid = region_ids[i] if region_ids[i] in known[m] else None
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
            first, counts = starts[fresh], sizes[fresh]
            shift = np.repeat(first + counts - np.cumsum(counts), counts)
            targets = np.arange(shift.size) + shift
            new = np.repeat([kept[m][-1] for m in fresh], counts)
            overlap = iou_arrays(dets.boxes[targets], dets.boxes[new])
            suppressed[targets[overlap >= threshold]] = True
        walking = fresh
    return kept, used


def standard_nms(detections: Detections, iou_threshold: float) -> Detections:
    """Plain greedy suppression within each image: keep a box iff it
    overlaps every kept box below the threshold. Output is in image-id
    order, descending score within an image."""
    dets = detections.grouped(detections.ids)
    kept, _ = _greedy(dets, iou_threshold, [set()] * len(dets.ids), require_region=False)
    return dets.take(np.array([i for chosen in kept for i in chosen], dtype=np.intp))


def associate_regions(detections: Detections, regions: Regions,
                      mode: str = "one_stage") -> Detections:
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
    dets, regs = split(detections, regions)
    if mode == "two_stage":
        if any(rid is None for rid in dets.region_ids.tolist()):
            raise InvalidInputError("two_stage association requires region provenance")
        return dets

    # Regions sorted by id, so of tied IoUs the first pair has the smaller id.
    ids = regs.region_ids
    by_id = np.argsort(ids, kind="stable")
    det, reg = pairs(dets.image, regs.image[by_id], len(dets.ids))
    reg = by_id[reg]
    overlap = iou_arrays(dets.boxes[det], regs.boxes()[reg])
    order = np.lexsort((-overlap, det))
    best = order[np.diff(det[order], prepend=-1) != 0]  # each detection's first highest pair
    best = best[overlap[best] > 0.0]
    region_ids = np.full(len(dets), None, dtype=object)
    region_ids[det[best]] = ids[reg[best]]
    return replace(dets, region_ids=region_ids)


def constrained_nms(detections: Detections, regions: Regions | None,
                    cfg: NmsConfig) -> Detections:
    """Greedy NMS where each radio region may produce at most one box.

    ``regions=None`` disables the constraint entirely, reducing to
    ``standard_nms``. With ``require_region`` a detection carrying no
    region id (or an id naming no region of its image) is dropped, since
    the radio asserts nobody is there; the permissive setting keeps such
    detections subject only to the overlap test. The fallback pass runs for
    enabled ``two_stage`` configurations on the images where pass one left
    a region empty, and gives each such region one detection, its own square
    at the floor score if need be. Output is in image-id order: pass one's
    boxes in score order, then the fallback's in region order.
    """
    if regions is None:
        return standard_nms(detections, cfg.iou_threshold)

    dets, regs = split(detections, regions)
    per_image: list[list[tuple[int, str]]] = [[] for _ in dets.ids]
    for k, (m, rid) in enumerate(zip(regs.image.tolist(), regs.region_ids.tolist())):
        per_image[m].append((k, rid))
    known = [{rid for _, rid in owned} for owned in per_image]
    kept, used = _greedy(dets, cfg.iou_threshold, known, cfg.require_region)
    # Pass two, on the images where pass one left a known region empty: a row for
    # each such region, its best suppressed candidate, else its square (len(dets) + k).
    fallback = cfg.mode == "two_stage" and cfg.enable_fallback_loop
    for m in [m for m, claimed in enumerate(used) if fallback and len(claimed) < len(known[m])]:
        low, high = np.searchsorted(dets.image, [m, m + 1]).tolist()
        candidates: dict[str | None, list[int]] = {}
        for i, rid in enumerate(dets.region_ids[low:high].tolist(), low):
            candidates.setdefault(rid, []).append(i)  # kept rows name claimed regions
        for k, rid in per_image[m]:
            if rid not in used[m]:
                revived = candidates.get(rid)
                kept[m].append(max(revived, key=lambda i: (dets.scores[i], -i)) if revived
                               else len(dets) + k)
                used[m].add(rid)
    rows = np.array([i for chosen in kept for i in chosen], dtype=np.intp)
    if not (rows >= len(dets)).any():
        return dets.take(rows)
    anchors = Detections(dets.ids, regs.image, regs.boxes(),
                         np.full(len(regs), cfg.fallback_floor_score), regs.region_ids,
                         np.full((len(regs), 4), np.nan))
    return dets.join(anchors).take(rows)
