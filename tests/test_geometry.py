"""Rectangle primitive tests."""

import pytest

from radiofusion.geometry import intersect_area, iou, rect_area, square


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
