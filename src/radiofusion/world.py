"""Per-image grouping and score order, shared by every layer.

A world is the records of many images: detections and annotations name
their image, and a stage call names the image of each radio region in a
``region_images`` list. This module owns the one rule that cuts a world
into images (``group_by_image``, ``split_world``), the batched per-image
kernel dispatch (``per_detection``) and the one score ranking
(``score_order``). It is a leaf: it imports no package module but
``errors``, so records, stages, metrics and the radio front end all import
it at the top.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from typing import NamedTuple, TypeVar

import numpy as np

from .errors import InvalidInputError

T = TypeVar("T")


def score_order(scores: Sequence[float] | np.ndarray) -> np.ndarray:
    """Indices by descending score, stable on the input position."""
    return np.argsort(-np.asarray(scores, dtype=float), kind="stable")


def group_by_image(items: Iterable[T]) -> dict[str, list[T]]:
    """Records (anything with an ``image_id``) per image, in input order."""
    grouped: dict[str, list[T]] = {}
    for item in items:
        grouped.setdefault(item.image_id, []).append(item)
    return grouped


class Image(NamedTuple):
    """One image of a stage call: its id, detections and regions."""

    image_id: str
    detections: list
    regions: list


def split_world(
    detections: Sequence,
    regions: Sequence,
    region_images: Sequence[str],
) -> list[Image]:
    """The images of a stage call in image-id order, records in input order.

    Detections name their image and ``region_images`` names the image of
    each region, one id per region (any other count is an input error).
    """
    if len(region_images) != len(regions):
        raise InvalidInputError(f"{len(region_images)} region image ids for {len(regions)} regions")
    dets = group_by_image(detections)
    regs: dict[str, list] = {}
    for owner, region in zip(region_images, regions):
        regs.setdefault(owner, []).append(region)
    return [Image(key, dets.get(key, []), regs.get(key, []))
            for key in sorted(dets.keys() | regs.keys())]


def per_detection(
    images: list[Image],
    kernel: Callable[[list, np.ndarray], np.ndarray],
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
