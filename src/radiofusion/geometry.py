"""Axis-aligned rectangle primitives.

Rectangles are ``(x, y, w, h)`` tuples with a top-left pixel origin, the
convention used by all detection and region records in this package.
``require_box`` is the one domain rule every record box passes, and
``in_box_domain`` its array form. Overlap and IoU have one array kernel,
on the corner columns that ``corners`` works out once per box.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

Rect = tuple[float, float, float, float]

# Every box corner of a record lies within this many pixels of the origin on
# each axis, so the sums, differences and products of any two boxes' IoU and
# overlap arithmetic stay finite.
MAX_COORD = 1e150


def require_box(what: str, box: Sequence[float]) -> None:
    """Raise InvalidInputError unless both corners of ``box`` are within
    ``MAX_COORD`` on each axis; NaN and infinite values fail too."""
    x, y, w, h = box
    if not (-MAX_COORD <= x <= MAX_COORD and -MAX_COORD <= y <= MAX_COORD
            and -MAX_COORD <= x + w <= MAX_COORD and -MAX_COORD <= y + h <= MAX_COORD):
        raise InvalidInputError(
            f"{what} corners must be finite and within {MAX_COORD:g} of 0, got {tuple(box)}")


def in_box_domain(boxes: np.ndarray) -> np.ndarray:
    """Whether ``require_box`` accepts each ``(..., 4)`` box, as a boolean array."""
    x, y, w, h = np.moveaxis(boxes, -1, 0)
    with np.errstate(over="ignore", invalid="ignore"):  # x + w may overflow, as it may in Python
        return ((np.abs(x) <= MAX_COORD) & (np.abs(y) <= MAX_COORD)
                & (np.abs(x + w) <= MAX_COORD) & (np.abs(y + h) <= MAX_COORD))


def square(center_x: float, center_y: float, edge: float) -> Rect:
    """Square of the given edge length centered at ``(center_x, center_y)``."""
    return (center_x - edge / 2.0, center_y - edge / 2.0, edge, edge)


def rect_areas(boxes: np.ndarray) -> np.ndarray:
    """Area of every ``(..., 4)`` box, negative extents counting as zero;
    bit-equal to the scalar ``rect_area`` in ``tests/conftest.py``."""
    return np.maximum(boxes[..., 2], 0.0) * np.maximum(boxes[..., 3], 0.0)


# Column k of the corners of ``(..., 4)`` boxes: x, y, x + w, y + h and the area.
_CORNER_COLUMNS = (lambda b: b[..., 0], lambda b: b[..., 1], lambda b: b[..., 0] + b[..., 2],
                   lambda b: b[..., 1] + b[..., 3], rect_areas)


@dataclass(frozen=True)
class BoxCorners:
    """The corner columns of ``(..., 4)`` boxes, each worked out when it is read."""

    boxes: np.ndarray

    def __getitem__(self, k: int) -> np.ndarray:
        return _CORNER_COLUMNS[k](self.boxes)


def corners(boxes: np.ndarray) -> np.ndarray:
    """``(5, ...)`` array of the ``BoxCorners`` columns of ``(..., 4)`` boxes."""
    return np.stack(list(BoxCorners(boxes)))


def intersect_corners(a: Sequence[np.ndarray], b: Sequence[np.ndarray],
                      out: np.ndarray | None = None) -> np.ndarray:
    """Overlap area (0 when disjoint) of two broadcast boxes' corner columns
    (``a[k]`` is column k of ``corners``, as in a ``BoxCorners``), in ``out``.

    Each column is read once. Every min, max, subtraction and product runs
    in the order of the scalar ``intersect_area`` in ``tests/conftest.py``
    on the same float64 values, so each entry is the same float.
    """
    w = np.asarray(np.minimum(a[2], b[2], out=out))  # 0-d as an array, to work in place
    w -= np.maximum(a[0], b[0])
    h = np.minimum(a[3], b[3])
    h -= np.maximum(a[1], b[1])
    empty = (w <= 0.0) | (h <= 0.0)
    w *= h
    np.copyto(w, 0.0, where=empty)
    return w


def iou_corners(a: Sequence[np.ndarray], b: Sequence[np.ndarray],
                out: np.ndarray | None = None) -> np.ndarray:
    """Intersection over union of ``intersect_corners``' operands (0 where the
    union is empty), in ``out``; bit-equal to the scalar ``iou`` in ``tests/conftest.py``."""
    inter = intersect_corners(a, b, out)
    union = a[4] + b[4] - inter
    np.copyto(inter, 0.0, where=union <= 0.0)
    return np.divide(inter, union, out=inter, where=union > 0.0)


def intersect_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``intersect_corners`` of broadcast ``(..., 4)`` box arrays."""
    return intersect_corners(BoxCorners(a), BoxCorners(b))


def iou_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``iou_corners`` of broadcast ``(..., 4)`` box arrays."""
    return iou_corners(BoxCorners(a), BoxCorners(b))
