"""Rectangle primitive tests."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import intersect_area, iou, rect_area
from radiofusion.fusion import coverage
from radiofusion.geometry import (MAX_COORD, BoxCorners, corners, intersect_arrays,
                                  intersect_corners, iou_arrays, iou_corners, rect_areas, square)


def test_area():
    assert rect_area((0, 0, 4, 5)) == 20
    assert rect_area((0, 0, -1, 5)) == 0


def test_square():
    assert square(10.0, 20.0, 4.0) == (8.0, 18.0, 4.0, 4.0)


def test_intersection():
    assert intersect_area((0, 0, 2, 2), (1, 1, 2, 2)) == 1.0
    assert intersect_area((0, 0, 2, 2), (5, 5, 2, 2)) == 0.0
    assert intersect_area((0, 0, 2, 2), (2, 0, 2, 2)) == 0.0  # touching edges


def test_iou_identity_disjoint_partial():
    assert iou((0, 0, 2, 2), (0, 0, 2, 2)) == 1.0
    assert iou((0, 0, 2, 2), (10, 10, 2, 2)) == 0.0
    assert iou((0, 0, 2, 2), (1, 1, 2, 2)) == pytest.approx(1.0 / 7.0)


def test_iou_zero_union():
    assert iou((0, 0, 0, 0), (0, 0, 0, 0)) == 0.0


_coord = st.floats(-1e3, 1e3) | st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])
_boxes = st.lists(st.tuples(_coord, _coord, st.floats(0.0, 1e3) | st.just(0.0),
                            st.floats(0.0, 1e3) | st.just(0.0)), min_size=1, max_size=6)


# Touching edges, zero-area boxes (points and lines) and a box inside another.
_EDGE_CASES = [(0.0, 0.0, 2.0, 2.0), (2.0, 0.0, 2.0, 2.0), (0.0, 2.0, 2.0, 2.0),
               (1.0, 1.0, 0.0, 0.0), (1.0, 0.0, 0.0, 2.0), (0.0, 1.0, 2.0, 0.0),
               (0.5, 0.5, 1.0, 1.0), (-1.0, -1.0, 4.0, 4.0), (0.0, 0.0, 2.0, 2.0)]


# Boxes anywhere in the box domain: each corner within MAX_COORD of 0.
_huge = st.floats(-MAX_COORD, MAX_COORD)
_domain_boxes = st.lists(st.builds(
    lambda x, y, w, h: (x, y, min(w, MAX_COORD - x), min(h, MAX_COORD - y)),
    _huge, _huge, st.floats(0.0, 2 * MAX_COORD), st.floats(0.0, 2 * MAX_COORD))
    .filter(lambda box: box[0] + box[2] <= MAX_COORD and box[1] + box[3] <= MAX_COORD),
    min_size=1, max_size=6)
# The zero box that metrics pads its chunks with, beside boxes at the domain's
# edges, and a box whose rounded corners make its union with itself negative.
_CORNER_CASES = [(0.0, 0.0, 0.0, 0.0), (-MAX_COORD, -MAX_COORD, 2 * MAX_COORD, 2 * MAX_COORD),
                 (MAX_COORD, MAX_COORD, 0.0, 0.0), (0.0, 0.0, MAX_COORD, MAX_COORD),
                 (-MAX_COORD, 0.0, MAX_COORD, 1.0), (0.1, 0.1, 7e-18, 7e-18)]


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _assert_kernels_bit_equal(a, b):
    """The box-array entries, the corner kernel on both operand forms and
    into a given ``out``, and ``fusion.coverage`` give the scalar floats."""
    boxes_a, boxes_b = np.array(a)[:, None], np.array(b)[None]
    expected_iou = _bits([[iou(p, q) for q in b] for p in a])
    expected_inter = _bits([[intersect_area(p, q) for q in b] for p in a])
    assert _bits(iou_arrays(boxes_a, boxes_b)) == expected_iou
    assert _bits(intersect_arrays(boxes_a, boxes_b)) == expected_inter
    for ca, cb in ((corners(boxes_a), corners(boxes_b)),
                   (BoxCorners(boxes_a), BoxCorners(boxes_b))):
        assert _bits(iou_corners(ca, cb)) == expected_iou
        assert _bits(intersect_corners(ca, cb)) == expected_inter
        out = np.full((len(a), len(b)), np.nan)
        assert iou_corners(ca, cb, out) is out and _bits(out) == expected_iou
    assert _bits(rect_areas(np.array(a))) == _bits([rect_area(p) for p in a])
    assert _bits(corners(np.array(a))[4]) == _bits([rect_area(p) for p in a])
    positive = [q for q in b if rect_area(q) > 0.0]
    if positive:  # what a box covers of another: the revision's decay factor
        assert _bits(coverage(boxes_a, np.array(positive)[None], "box")) == _bits(
            [[min(intersect_area(p, q) / rect_area(q), 1.0) for q in positive] for p in a])


@given(_boxes, _boxes)
def test_array_kernel_is_bit_equal_to_the_scalar(a, b):
    """The box kernels give the scalar floats bit for bit."""
    _assert_kernels_bit_equal(a, b)


def test_array_kernel_edge_cases():
    cases = _EDGE_CASES + _CORNER_CASES
    _assert_kernels_bit_equal(cases, cases)
    table = iou_arrays(np.array(cases)[:, None], np.array(cases)[None])
    assert table[len(_EDGE_CASES)].tolist() == [0.0] * len(cases)  # metrics' padding box
    assert table[-1, -1] == 0.0 < intersect_area(cases[-1], cases[-1])  # a union below 0
    assert len(list(BoxCorners(np.array(cases)))) == 5
    inter = intersect_arrays(np.array(_EDGE_CASES)[:, None], np.array(_EDGE_CASES)[None])
    assert inter[0, 1] == inter[0, 2] == 0.0  # touching edges
    assert inter[3].tolist() == [0.0] * len(_EDGE_CASES)  # a point covers nothing
    assert inter[0, 6] == 1.0 and inter[7, 0] == 4.0  # contained either way round
    assert iou_arrays(np.array(_EDGE_CASES[3]), np.array(_EDGE_CASES[3])) == 0.0


@given(_domain_boxes, _domain_boxes)
def test_array_kernel_is_bit_equal_to_the_scalar_across_the_domain(a, b):
    """The same on boxes with corners anywhere within MAX_COORD of 0."""
    _assert_kernels_bit_equal(a, b)
