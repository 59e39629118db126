"""The detection record, the columnar detection world and the score order.

A world is the records of many images; a stage call names the image of
each radio region in a ``region_images`` list. ``Detections`` holds a
world's detections as columns with each row's image as an index into one
sorted id table, computed once when the columns are built, so stages,
metrics and the detection file codec never group by id strings again.
``Detection`` is the public one-box record; ``Detections.from_records`` and
``Detections.records`` are the library edge between the two. The module is
a leaf: it imports no package module but ``geometry`` and ``errors``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace
from itertools import chain
from typing import TypeVar

import numpy as np

from .errors import InvalidInputError
from .geometry import Rect, in_box_domain, require_box

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


@dataclass(frozen=True, eq=False)
class Detections:
    """A world's detections as columns, one row per detection in the order
    given. ``ids`` is a sorted image-id table, which may name images without
    rows, and ``image`` each row's index in it; ``boxes`` and ``cells`` are
    ``(n, 4)``, NaN where a row has no cell; ``region_ids`` holds ``str`` or
    ``None``. Rows hold what ``Detection`` accepts (``valid``)."""

    ids: tuple[str, ...]
    image: np.ndarray
    boxes: np.ndarray
    scores: np.ndarray
    region_ids: np.ndarray
    cells: np.ndarray

    def __len__(self) -> int:
        return self.scores.size

    @classmethod
    def build(cls, rows: list[Sequence]) -> Detections:
        """Columns from rows of ``Detection``'s field values (a cell may be None)."""
        image_ids, boxes, scores, region_ids, cells = zip(*rows) if rows else ((),) * 5
        table = tuple(sorted(set(image_ids)))
        index = {key: i for i, key in enumerate(table)}
        n, quads = len(rows), chain.from_iterable  # fromiter is twice as fast as np.array here
        cells = quads((math.nan,) * 4 if cell is None else cell for cell in cells)
        return cls(table, np.fromiter(map(index.__getitem__, image_ids), np.intp, n),
                   np.fromiter(quads(boxes), float, 4 * n).reshape(n, 4),
                   np.array(scores, dtype=float), np.fromiter(region_ids, object, n),
                   np.fromiter(cells, float, 4 * n).reshape(n, 4))

    @classmethod
    def from_records(cls, records: Iterable[Detection]) -> Detections:
        return cls.build([(d.image_id, d.bbox, d.score, d.region_id, d.cell) for d in records])

    def records(self) -> list[Detection]:
        cells = [None if cell[0] != cell[0] else tuple(cell) for cell in self.cells.tolist()]
        return [Detection(self.ids[i], tuple(box), *rest) for i, box, *rest in zip(
            self.image.tolist(), self.boxes.tolist(), self.scores.tolist(),
            self.region_ids.tolist(), cells)]

    def valid(self) -> bool:
        """Whether ``Detection`` accepts every row (a NaN cell is no cell)."""
        cells = self.cells[~np.isnan(self.cells[:, 0])]
        return bool(((self.scores >= 0.0) & (self.scores <= 1.0)).all()
                    and (self.boxes[:, 2:] >= 0.0).all() and in_box_domain(self.boxes).all()
                    and in_box_domain(cells).all())

    def named_ids(self) -> list[str]:
        """The ids of the images some row names (np.unique would cost 1.6 MB of RSS)."""
        return [self.ids[i] for i in np.flatnonzero(np.bincount(self.image)).tolist()]

    def take(self, rows: np.ndarray) -> Detections:
        """The rows at ``rows`` (indices or a boolean mask), same id table."""
        return Detections(self.ids, *(column[rows] for column in self._columns()))

    def join(self, other: Detections) -> Detections:
        """These rows, then ``other``'s over the same id table."""
        return Detections(self.ids, *map(np.concatenate, zip(self._columns(), other._columns())))

    def grouped(self, ids: Sequence[str]) -> Detections:
        """The rows in image-id order, given order within an image, over the
        sorted table ``ids``, which names every image of a row."""
        index = {key: i for i, key in enumerate(ids)}
        remap = np.array([index.get(key, -1) for key in self.ids], dtype=np.intp)
        dets = replace(self, ids=tuple(ids), image=remap[self.image])
        in_order = (dets.image[1:] >= dets.image[:-1]).all()
        return dets if in_order else dets.take(np.argsort(dets.image, kind="stable"))

    def _columns(self) -> tuple[np.ndarray, ...]:
        return self.image, self.boxes, self.scores, self.region_ids, self.cells


def split(detections: Detections, regions: Sequence, region_images: Sequence[str],
          ) -> tuple[Detections, np.ndarray, np.ndarray, np.ndarray]:
    """A stage call's detections in image-id order over the table of every
    image it names; per region, the index of its image there (one id per
    region; any other count is an input error), its box and its id."""
    if len(region_images) != len(regions):
        raise InvalidInputError(f"{len(region_images)} region image ids for {len(regions)} regions")
    table = sorted(set(detections.ids).union(region_images))
    index = {key: i for i, key in enumerate(table)}
    owner = np.fromiter(map(index.__getitem__, region_images), np.intp, len(region_images))
    boxes = np.array([region.to_bbox() for region in regions], dtype=float).reshape(-1, 4)
    ids = np.array([region.identifier for region in regions], dtype=object)
    return detections.grouped(table), owner, boxes, ids


def pairs(det_image: np.ndarray, region_image: np.ndarray,
          num_images: int) -> tuple[np.ndarray, np.ndarray]:
    """Every (detection, region) index pair on one image, detection-major,
    the regions of a detection in their given order."""
    order = np.argsort(region_image, kind="stable")
    counts = np.bincount(region_image, minlength=num_images)
    per = counts[det_image]
    det = np.repeat(np.arange(det_image.size), per)
    shift = np.repeat((np.cumsum(counts) - counts)[det_image] - (np.cumsum(per) - per), per)
    return det, order[np.arange(det.size) + shift]
