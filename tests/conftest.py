"""Shared test helpers, and the scalar per-box API that no command runs,
kept as the exact-equality oracles of the array kernels the package runs."""

import csv
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from radiofusion.fileio import _float
from radiofusion.geometry import Rect, square
from radiofusion.metrics import _match
from radiofusion.sim_regions import NoiseParams, draw_region_noise
from radiofusion.world import Annotation, Annotations, Detections, RadioRegion, Regions


def rect_area(rect: Sequence[float]) -> float:
    """Area of a rectangle; negative extents count as zero."""
    _, _, w, h = rect
    return max(w, 0.0) * max(h, 0.0)


def intersect_area(a: Sequence[float], b: Sequence[float]) -> float:
    """Overlap area of two rectangles (0 when disjoint)."""
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    w = min(ax + aw, bx + bw) - max(ax, bx)
    h = min(ay + ah, by + bh) - max(ay, by)
    if w <= 0.0 or h <= 0.0:
        return 0.0
    return w * h


def iou(a: Sequence[float], b: Sequence[float]) -> float:
    """Intersection over union of two rectangles.

    Zero-area boxes are allowed; when the union is empty the result is 0.
    """
    inter = intersect_area(a, b)
    union = rect_area(a) + rect_area(b) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


@dataclass(frozen=True)
class MatchResult:
    """Per-image detection flags and miss count at one IoU threshold."""

    tp: tuple[bool, ...]
    fp: tuple[bool, ...]
    fn: int


def match(detections: list, gts: list, iou_t: float,
          sorted_by_score: bool = True) -> MatchResult:
    """Match one image's ``Detection`` records against its ``Annotation``
    records with ``metrics._match``, the kernel that ``coco_map`` runs."""
    detections, gts = Detections.from_records(detections), Annotations.from_records(gts)
    tp = _match(detections.boxes, detections.scores, np.array([len(detections)]), gts.boxes,
                np.array([len(gts)]), (iou_t,), by_score=sorted_by_score).tp[0, 0].tolist()
    return MatchResult(tp=tuple(tp), fp=tuple(not f for f in tp), fn=len(gts) - sum(tp))


def gt_to_region(ann: Annotation, noise: NoiseParams, rng: np.random.Generator,
                 identifier: str = "r0") -> RadioRegion:
    """Turn one annotation into a noisy square region: the one-person draw of
    ``build_simulative_set``, bit-identical for a given generator state."""
    x, y, w, h = ann.bbox
    draw = draw_region_noise(noise, min(w, h), rng)
    return RadioRegion(x + w / 2.0 + float(draw.dx), y + h / 2.0 + float(draw.dy),
                       float(draw.edge), identifier)


def to_bbox(region: RadioRegion) -> Rect:
    """One region's square: a row of ``Regions.boxes``."""
    return square(region.center_x, region.center_y, region.edge)


def _height(ann: Annotation) -> float:
    """Pedestrian height in pixels, defaulting to the box height."""
    return ann.height_px if ann.height_px is not None else ann.bbox[3]


def _occlusion(ann: Annotation) -> float:
    return ann.occlusion_fraction if ann.occlusion_fraction is not None else 0.0


def reasonable(ann: Annotation) -> bool:
    """Caltech 'reasonable' on one record: taller than 60 px, under 35% occluded."""
    return _height(ann) > 60.0 and _occlusion(ann) < 0.35


def visible(ann: Annotation) -> bool:
    """Caltech 'all' on one record: taller than 20 px, under 80% occluded."""
    return _height(ann) > 20.0 and _occlusion(ann) < 0.80


def read_curve_csv(path: str | Path) -> list[tuple[float, float]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return [(_float(a), _float(b)) for a, b in rows[1:]]


def group_by_image(items):
    """Records (anything with an ``image_id``) per image, in input order."""
    grouped = {}
    for item in items:
        grouped.setdefault(item.image_id, []).append(item)
    return grouped


def regions_in(regions, image="i"):
    """``Regions`` columns of a world of one image that holds every
    ``RadioRegion`` record of ``regions``."""
    return Regions.from_records({image: regions})


def on_records(function):
    """``function`` on records: a list of ``Detection`` records first, then a
    list of a metric's ``Annotation`` or a stage's ``RadioRegion`` records
    (all in image ``"i"``), giving records back where it gives
    ``Detections``: the library edge around a stage or metric."""
    columns = (Annotations.from_records if function.__module__ == "radiofusion.metrics"
               else regions_in)

    def call(detections, *args, **kwargs):
        if args and isinstance(args[0], list):
            args = (columns(args[0]), *args[1:])
        result = function(Detections.from_records(detections), *args, **kwargs)
        return result.records() if isinstance(result, Detections) else result
    return call
