"""The world's records, their columnar tables and the score order.

A world is the records of many images. ``Detection``, ``Annotation``,
``RadioRegion`` and ``RadioEstimate`` are the public one-item records;
``Detections``, ``Annotations``, ``Regions`` and ``Estimates`` hold a
world's items as columns, with each row's image as an index into one sorted
id table, computed once when the columns are built, so stages, metrics and
the file readers never group by id strings again. ``from_records`` and
``records`` are the library edge between the two (for a radio table, a map
from image id to records). The module is a leaf: it imports no package
module but ``geometry`` and ``errors``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, fields, replace
from itertools import chain
from operator import attrgetter
from typing import ClassVar, TypeVar, get_type_hints

import numpy as np

from .errors import InvalidInputError, require_finite
from .geometry import MAX_COORD, Rect, in_box_domain, require_box, square

Self = TypeVar("Self", bound="Table")

# Region proposals: one anchor per scale and height/width ratio (``fusion.anchor_boxes``).
ANCHOR_SCALES = (0.75, 1.0, 1.25)
ANCHOR_RATIOS = (1.0, 2.0, 3.0)
_TALLEST = max(ANCHOR_SCALES), math.sqrt(max(ANCHOR_RATIOS))  # ``anchor_reach``'s factors


def score_order(scores: Sequence[float] | np.ndarray) -> np.ndarray:
    """Indices by descending score, stable on the input position."""
    return np.argsort(-np.asarray(scores, dtype=float), kind="stable")


def image_score_order(image: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Indices by image, then as ``score_order`` within it: each image's walk."""
    return np.lexsort((-scores, image))


def anchor_reach(edge):
    """The edge of the square that holds a region's tallest proposal anchor."""
    return _TALLEST[0] * edge * _TALLEST[1]


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


@dataclass(frozen=True)
class Annotation:
    """Ground-truth person box for one image. One comparison chain accepts
    the records ``make_world`` builds: a tuple box in the box domain with
    positive extents, and no height or occlusion. The ordered checks run only
    for any other record, and to name the first rule that a refused one
    breaks; a value the chain cannot compare falls through to them, so every
    input gets their verdict."""

    image_id: str
    bbox: Rect
    category: str = "person"
    height_px: float | None = None
    occlusion_fraction: float | None = None

    def __post_init__(self) -> None:
        box, hi, lo = self.bbox, MAX_COORD, -MAX_COORD
        if type(box) is tuple and self.height_px is None and self.occlusion_fraction is None:
            try:  # x and y are bounded before any sum, and x + w >= x >= lo as w > 0
                x, y, w, h = box
                if (lo <= x <= hi and lo <= y <= hi and w > 0 and h > 0
                        and x + w <= hi and y + h <= hi):
                    return
            except Exception:  # not a number, or a numpy warning raised as an error
                pass
        require_box("annotation", self.bbox)
        require_finite("annotation", self.height_px, self.occlusion_fraction)
        _, _, w, h = self.bbox
        if w <= 0 or h <= 0:
            raise InvalidInputError(f"annotation bbox must have positive extents, got {self.bbox}")
        if self.height_px is not None and self.height_px <= 0:
            raise InvalidInputError(f"annotation height must be > 0, got {self.height_px}")
        if self.occlusion_fraction is not None and not 0.0 <= self.occlusion_fraction <= 1.0:
            raise InvalidInputError(
                f"annotation occlusion must be in [0, 1], got {self.occlusion_fraction}")


@dataclass(frozen=True)
class RadioRegion:
    """Square image-plane region born from one radio localization; its
    tallest proposal anchor, like its square, lies in the box domain. One
    comparison chain over the corners accepts a region; it skips the
    square's top-left corner, which lies between the anchor's and the
    square's far corner. The ordered checks run only to name the first rule
    that a refused one breaks. The check reads the numbers as ``float``s, so
    a numpy scalar that overflows in the chain raises no numpy warning."""

    center_x: float
    center_y: float
    edge: float
    identifier: str

    def __post_init__(self) -> None:
        x, y, edge = float(self.center_x), float(self.center_y), float(self.edge)
        hi, lo = MAX_COORD, -MAX_COORD
        reach = anchor_reach(edge)  # top-left corners: s* of the square, a* of the anchor
        sx, sy, ax, ay = x - edge / 2.0, y - edge / 2.0, x - reach / 2.0, y - reach / 2.0
        if not (edge > 0 and lo <= sx + edge <= hi and lo <= sy + edge <= hi
                and lo <= ax <= hi and lo <= ay <= hi
                and lo <= ax + reach <= hi and lo <= ay + reach <= hi):
            require_finite("region", self.center_x, self.center_y, self.edge)
            require_box("region", square(x, y, edge))
            require_box("region anchor", square(x, y, reach))
            raise InvalidInputError(f"region edge must be > 0, got {self.edge}")


@dataclass(frozen=True)
class RadioEstimate:
    """One localized emitter: horizontal/vertical arrival angles plus delay."""

    aoa_h: float
    aoa_v: float
    tof: float
    magnitude: float
    identifier: str

    def __post_init__(self) -> None:
        require_finite("estimate", self.aoa_h, self.aoa_v, self.tof, self.magnitude)
        if self.tof <= 0:
            raise InvalidInputError(f"time of flight must be > 0, got {self.tof}")
        for name, angle in (("aoa_h", self.aoa_h), ("aoa_v", self.aoa_v)):
            if not 0.0 <= angle <= 180.0:
                raise InvalidInputError(f"{name}={angle} outside [0, 180] degrees")


def _indexed(image_ids: Sequence[str], table: Iterable[str] = ()) -> tuple[tuple, np.ndarray]:
    """The id table of ``image_ids`` and ``table``, sorted as strings so that
    ids of mixed types sort, and each id's index in it."""
    table = tuple(sorted(set(image_ids).union(table), key=str))
    index = {key: i for i, key in enumerate(table)}
    return table, np.fromiter(map(index.__getitem__, image_ids), np.intp, len(image_ids))


def _quads(boxes: Sequence[Sequence[float] | None], n: int) -> np.ndarray:
    """``(n, 4)`` boxes, NaN for None (fromiter is twice as fast as np.array here)."""
    if any(box is None for box in boxes):
        boxes = [(math.nan,) * 4 if box is None else box for box in boxes]
    return np.fromiter(chain.from_iterable(boxes), float, 4 * n).reshape(n, 4)


def _values(column: np.ndarray) -> list:
    """A column's record values: boxes as tuples, NaN as None."""
    if column.ndim == 2:
        return [None if box[0] != box[0] else tuple(box) for box in column.tolist()]
    return [None if value != value else value for value in column.tolist()]


@dataclass(frozen=True, eq=False)
class Table:
    """A world's items as columns, one row per item in the order given.
    ``ids`` is an image-id table sorted as strings, which may name images without rows,
    and ``image`` each row's index in it. Every further field is the column
    of one field of ``record`` other than its image id, in order: ``(n, 4)``
    for a box, object for text, float for a number, and NaN where the record
    holds None. Rows hold what ``record`` accepts (``valid``)."""

    ids: tuple[str, ...]
    image: np.ndarray
    record: ClassVar[type]
    kinds: ClassVar[tuple]  # each column's field type in ``record``

    def __init_subclass__(cls) -> None:
        cls.kinds = tuple(kind for name, kind in get_type_hints(cls.record).items()
                          if name != "image_id")

    def __len__(self) -> int:
        return self.image.size

    @classmethod
    def build(cls: type[Self], image_ids: Sequence[str], *values: Sequence,
              table: Iterable[str] = ()) -> Self:
        """Columns from ``record``'s field values, column by column, over the
        table of ``image_ids`` and ``table``."""
        n = len(image_ids)
        return cls(*_indexed(image_ids, table), *(
            _quads(column, n) if kind in (Rect, Rect | None) else np.fromiter(column, object, n)
            if kind in (str, str | None) else np.array(column, dtype=float)
            for kind, column in zip(cls.kinds, values)))

    @classmethod
    def from_records(cls: type[Self], records: Iterable) -> Self:
        rows = list(map(attrgetter(*(f.name for f in fields(cls.record))), records))
        return cls.build(*(zip(*rows) if rows else [()] * len(fields(cls.record))))

    def records(self) -> list:
        return [self.record(self.ids[i], *row) for i, *row in zip(
            self.image.tolist(), *map(_values, self.columns()[1:]))]

    def named_ids(self) -> list[str]:
        """The ids of the images some row names (np.unique would cost 1.6 MB of RSS)."""
        return [self.ids[i] for i in np.flatnonzero(np.bincount(self.image)).tolist()]

    def take(self: Self, rows: np.ndarray) -> Self:
        """The rows at ``rows`` (indices or a boolean mask), same id table."""
        if rows.dtype == bool and rows.all():  # no copy: no code writes to a column
            return self
        return type(self)(self.ids, *(column[rows] for column in self.columns()))

    def grouped(self: Self, ids: Sequence[str]) -> Self:
        """The rows in image-id order, given order within an image, over the
        sorted table ``ids``, which names every image of a row; the table
        itself when ``ids`` is its own table and its rows are in order."""
        table, ids = self, tuple(ids)
        if ids != self.ids:
            index = {key: i for i, key in enumerate(ids)}
            remap = np.array([index.get(key, -1) for key in self.ids], dtype=np.intp)
            table = replace(self, ids=ids, image=remap[self.image])
        in_order = (table.image[1:] >= table.image[:-1]).all()
        return table if in_order else table.take(np.argsort(table.image, kind="stable"))

    def columns(self) -> list[np.ndarray]:
        """``image``, then the column of each field of ``record`` in its order."""
        return [getattr(self, f.name) for f in fields(self)[1:]]


@dataclass(frozen=True, eq=False)
class Detections(Table):
    """Detections; a NaN cell is no cell."""

    boxes: np.ndarray
    scores: np.ndarray
    region_ids: np.ndarray
    cells: np.ndarray
    record = Detection

    def valid(self) -> bool:
        cells = self.cells[~np.isnan(self.cells[:, 0])]
        return bool(((self.scores >= 0.0) & (self.scores <= 1.0)).all()
                    and (self.boxes[:, 2:] >= 0.0).all() and in_box_domain(self.boxes).all()
                    and in_box_domain(cells).all())

    def join(self, other: Detections) -> Detections:
        """These rows, then ``other``'s over the same id table."""
        return Detections(self.ids, *map(np.concatenate, zip(self.columns(), other.columns())))


@dataclass(frozen=True, eq=False)
class Annotations(Table):
    """Ground truth; a NaN height or occlusion is none."""

    boxes: np.ndarray
    categories: np.ndarray
    heights: np.ndarray
    occlusions: np.ndarray
    record = Annotation

    @property
    def height(self) -> np.ndarray:
        """Pedestrian heights in pixels, defaulting to the box height."""
        return np.where(np.isnan(self.heights), self.boxes[:, 3], self.heights)

    @property
    def occlusion(self) -> np.ndarray:
        return np.where(np.isnan(self.occlusions), 0.0, self.occlusions)

    def valid(self) -> bool:
        return bool(in_box_domain(self.boxes).all() and (self.boxes[:, 2:] > 0.0).all()
                    and not ((self.heights <= 0.0) | (self.heights == math.inf)).any()
                    and not ((self.occlusions < 0.0) | (self.occlusions > 1.0)).any())


class ByImage:
    """A radio table's record edge: a map from image id to that image's
    records in row order, an empty list for an image without rows."""

    @classmethod
    def from_records(cls: type[Self], by_image: Mapping[str, Iterable]) -> Self:
        """The records of each image in the given order; a boolean where a
        record holds a number is refused, as the float column would hold 1.0."""
        names = [f.name for f in fields(cls.record)]
        get = attrgetter(*names)
        rows = [(key, *get(item)) for key, items in by_image.items() for item in items]
        columns = list(zip(*rows)) if rows else [()] * (1 + len(names))
        for name, kind, column in zip(names, cls.kinds, columns[1:]):
            if kind is float and not {bool, np.bool_}.isdisjoint(map(type, column)):
                raise InvalidInputError(f"{name}: expected a number, got a boolean")
        return cls.build(*columns, table=by_image)

    def records(self) -> dict[str, list]:
        """The records per image; a NaN reaches the record, which refuses it."""
        by_image: dict[str, list] = {key: [] for key in self.ids}
        for i, *row in zip(self.image.tolist(), *(c.tolist() for c in self.columns()[1:])):
            by_image[self.ids[i]].append(self.record(*row))
        return by_image


@dataclass(frozen=True, eq=False)
class Regions(ByImage, Table):
    """Radio regions, each the square of ``edge`` centered at (``center_x``,
    ``center_y``)."""

    center_x: np.ndarray
    center_y: np.ndarray
    edge: np.ndarray
    region_ids: np.ndarray
    record = RadioRegion

    def items(self):  # the map's views, for callers that still read a map
        return self.records().items()

    def values(self):
        return self.records().values()

    def boxes(self) -> np.ndarray:
        """Each region's square, ``(n, 4)``."""
        return np.stack(square(self.center_x, self.center_y, self.edge), axis=-1)

    def valid(self) -> bool:
        with np.errstate(over="ignore", invalid="ignore"):  # a huge edge or its reach may overflow
            squares, anchors = self.boxes(), square(self.center_x, self.center_y,
                                                    anchor_reach(self.edge))
        return bool((self.edge > 0.0).all() and in_box_domain(squares).all()
                    and in_box_domain(np.stack(anchors, axis=-1)).all())


@dataclass(frozen=True, eq=False)
class Estimates(ByImage, Table):
    """Radio estimates: arrival angles in degrees, delay and magnitude."""

    aoa_h: np.ndarray
    aoa_v: np.ndarray
    tof: np.ndarray
    magnitude: np.ndarray
    identifier: np.ndarray
    record = RadioEstimate

    def valid(self) -> bool:
        angles = np.concatenate([self.aoa_h, self.aoa_v])
        return bool(((angles >= 0.0) & (angles <= 180.0)).all()
                    and ((self.tof > 0.0) & (self.tof < math.inf)).all()
                    and np.isfinite(self.magnitude).all())


def split(detections: Detections, regions: Regions) -> tuple[Detections, Regions]:
    """A stage call's detections and regions in image-id order, given order
    within an image, over one table: the ids of either."""
    table = sorted(set(detections.ids).union(regions.ids), key=str)
    return detections.grouped(table), regions.grouped(table)


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
