"""Rectangle primitive tests."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from radiofusion.geometry import intersect_area, iou, iou_arrays, rect_area, rect_areas, square


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


@given(_boxes, _boxes)
def test_array_kernel_is_bit_equal_to_the_scalar(a, b):
    """iou_arrays and rect_areas give the scalar floats bit for bit."""
    table = iou_arrays(np.array(a)[:, None], np.array(b)[None])
    assert table.tolist() == [[iou(p, q) for q in b] for p in a]
    assert rect_areas(np.array(a)).tolist() == [rect_area(p) for p in a]
