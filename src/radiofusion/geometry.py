"""Axis-aligned rectangle primitives.

Rectangles are ``(x, y, w, h)`` tuples with a top-left pixel origin, the
convention used by all detection and region records in this package.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

Rect = tuple[float, float, float, float]


def rect_area(rect: Sequence[float]) -> float:
    """Area of a rectangle; negative extents count as zero."""
    _, _, w, h = rect
    return max(w, 0.0) * max(h, 0.0)


def square(center_x: float, center_y: float, edge: float) -> Rect:
    """Square of the given edge length centered at ``(center_x, center_y)``."""
    return (center_x - edge / 2.0, center_y - edge / 2.0, edge, edge)


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


def rect_areas(boxes: np.ndarray) -> np.ndarray:
    """``rect_area`` of every ``(..., 4)`` box, bit-equal to the scalar."""
    return np.maximum(boxes[..., 2], 0.0) * np.maximum(boxes[..., 3], 0.0)


def iou_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``iou`` of broadcast ``(..., 4)`` box arrays, bit-equal to the scalar.

    Every min, max, subtraction, product and division runs in ``iou``'s
    order on the same float64 values, so each entry is the same float.
    """
    w = np.minimum(a[..., 0] + a[..., 2], b[..., 0] + b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    h = np.minimum(a[..., 1] + a[..., 3], b[..., 1] + b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.where((w > 0.0) & (h > 0.0), w * h, 0.0)
    union = rect_areas(a) + rect_areas(b) - inter
    return np.divide(inter, union, out=np.zeros(union.shape), where=union > 0.0)
