"""Camera projection tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import regions_in, to_bbox
from radiofusion.errors import InvalidInputError
from radiofusion.imaging import CameraModel, RadioRegion, batch_project, project
from radiofusion.radio import SPEED_OF_LIGHT, RadioEstimate

CAMERA = CameraModel(focal_length_px=3000.0, image_width=1280.0, image_height=720.0)
# Short focal length widens the frame to atan(640 / 500) = 52.0 degrees off
# axis horizontally and atan(360 / 500) = 35.75 degrees vertically.
WIDE = CameraModel(focal_length_px=500.0, image_width=1280.0, image_height=720.0)


def estimate(aoa_h=90.0, aoa_v=90.0, tof=20e-9, identifier="p0"):
    return RadioEstimate(aoa_h=aoa_h, aoa_v=aoa_v, tof=tof,
                         magnitude=1.0, identifier=identifier)


class TestProject:
    def test_broadside_center_is_image_center(self):
        for tof in (5e-9, 50e-9, 500e-9):
            region = project(estimate(tof=tof), CAMERA)
            assert region is not None
            assert region.center_x == pytest.approx(640.0)
            assert region.center_y == pytest.approx(360.0)

    def test_edge_from_similar_triangles(self):
        # 5 m plane distance with a 3000 px focal length: 1 m maps to 600 px.
        tof = 5.0 / SPEED_OF_LIGHT
        region = project(estimate(tof=tof), CAMERA, person_extent_m=1.0)
        assert region.edge == pytest.approx(600.0, rel=1e-12)

    def test_doubling_range_halves_edge_fixed_center(self):
        near = project(estimate(tof=10e-9), CAMERA)
        far = project(estimate(tof=20e-9), CAMERA)
        assert far.edge == pytest.approx(near.edge / 2.0, rel=1e-12)
        assert (far.center_x, far.center_y) == (near.center_x, near.center_y)

    def test_round_trip_factor_scales_range(self):
        one_way = project(estimate(tof=10e-9), CAMERA, range_factor=1.0)
        radar = project(estimate(tof=20e-9), CAMERA, range_factor=0.5)
        assert radar.edge == pytest.approx(one_way.edge, rel=1e-12)

    def test_out_of_fov_returns_none(self):
        for sign in (1.0, -1.0):
            assert project(estimate(aoa_h=90.0 + sign * 53.0), WIDE) is None
            assert project(estimate(aoa_h=90.0 + sign * 51.0), WIDE) is not None
            assert project(estimate(aoa_v=90.0 + sign * 36.0), WIDE) is None
            assert project(estimate(aoa_v=90.0 + sign * 35.0), WIDE) is not None

    def test_out_of_frame_center_returns_none(self):
        # 20 degrees is past atan(640 / 3000) = 12.0 degrees, the frame's edge.
        assert project(estimate(aoa_h=90.0 + 20.0), CAMERA) is None

    def test_behind_camera_returns_none(self):
        assert project(estimate(aoa_h=180.0), WIDE) is None
        assert project(estimate(aoa_v=0.0), WIDE) is None

    def test_rejects_bad_extent(self):
        with pytest.raises(InvalidInputError):
            project(estimate(), CAMERA, person_extent_m=0.0)

    def test_plane_distance_underflow_returns_none(self):
        # 0.3 m times the smallest subnormal factor rounds to a distance of 0.
        assert project(estimate(tof=1e-9), CAMERA, range_factor=5e-324) is None

    def test_angle_round_trip_recovers_estimate(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            aoa_h = 90.0 + rng.uniform(-30, 30)
            aoa_v = 90.0 + rng.uniform(-24, 24)
            region = project(estimate(aoa_h=aoa_h, aoa_v=aoa_v, tof=30e-9), WIDE)
            if region is None:
                continue
            back_h = 90.0 + math.degrees(
                math.atan((region.center_x - WIDE.image_width / 2) / WIDE.focal_length_px))
            back_v = 90.0 + math.degrees(
                math.atan((region.center_y - WIDE.image_height / 2) / WIDE.focal_length_px))
            assert back_h == pytest.approx(aoa_h, abs=1e-9)
            assert back_v == pytest.approx(aoa_v, abs=1e-9)

    def test_edge_strictly_decreasing_in_tof(self):
        tofs = np.linspace(5e-9, 200e-9, 40)
        edges = [project(estimate(tof=float(t)), CAMERA).edge for t in tofs]
        assert all(a > b for a, b in zip(edges, edges[1:]))

    def test_centers_always_inside_image(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            region = project(
                estimate(aoa_h=90 + rng.uniform(-40, 40), aoa_v=90 + rng.uniform(-40, 40),
                         tof=float(rng.uniform(1e-9, 1e-6))),
                WIDE,
            )
            if region is None:
                continue
            assert 0.0 <= region.center_x <= WIDE.image_width
            assert 0.0 <= region.center_y <= WIDE.image_height


class TestBatchProject:
    def test_empty(self):
        assert batch_project([], CAMERA) == []

    def test_drops_out_of_fov(self):
        estimates = [estimate(identifier="in"), estimate(aoa_h=150.0, identifier="out")]
        regions = batch_project(estimates, WIDE)
        assert [r.identifier for r in regions] == ["in"]

    def test_drops_behind_camera_without_raising(self):
        estimates = [estimate(identifier="a"), estimate(aoa_h=180.0, identifier="b")]
        regions = batch_project(estimates, WIDE)
        assert [r.identifier for r in regions] == ["a"]

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("factor", ["person_extent_m", "range_factor"])
    def test_refuses_a_factor_that_is_not_finite_and_positive(self, factor, value):
        factors = {"person_extent_m": 1.0, "range_factor": 1.0, factor: value}
        with pytest.raises(InvalidInputError, match="person_extent_m and range_factor"):
            batch_project([estimate()], CAMERA, **factors)

    def test_duplicate_estimates_keep_identifiers(self):
        estimates = [estimate(identifier="a"), estimate(identifier="b")]
        regions = batch_project(estimates, CAMERA)
        assert [r.identifier for r in regions] == ["a", "b"]


class TestRadioRegion:
    def test_bbox(self):
        region = RadioRegion(center_x=50.0, center_y=40.0, edge=20.0, identifier="r")
        assert to_bbox(region) == (40.0, 30.0, 20.0, 20.0)
        assert regions_in([region]).boxes().tolist() == [[40.0, 30.0, 20.0, 20.0]]

    def test_positive_edge_required(self):
        with pytest.raises(InvalidInputError):
            RadioRegion(center_x=0, center_y=0, edge=0.0, identifier="r")

    def test_camera_validation(self):
        with pytest.raises(InvalidInputError):
            CameraModel(0.0, 100, 100)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("name", ["focal_length_px", "image_width", "image_height"])
    def test_camera_refuses_a_non_finite_or_non_positive_field(self, name, value):
        """NaN fails ``<= 0`` as well as ``> 0``, so each field is tested as a finite positive."""
        fields = {"focal_length_px": 3000.0, "image_width": 1280.0, "image_height": 720.0}
        with pytest.raises(InvalidInputError, match=name):
            CameraModel(**{**fields, name: value})


def _off_axis(limit, inside, share):
    """An angle at least 1e-9 degrees inside or outside ``limit`` (and short of 90)."""
    room = limit if inside else 89.9 - limit
    margin = 1e-9 + share * (room - 1e-9)
    return limit - margin if inside else limit + margin


@settings(max_examples=400, deadline=None)
@given(focal=st.floats(100.0, 5000.0),
       frame=st.sampled_from([(1280.0, 720.0), (640.0, 480.0), (100.0, 100.0),
                              (1920.0, 1080.0), (4000.0, 300.0), (10.0, 7000.0)]),
       inside_h=st.booleans(), inside_v=st.booleans(),
       share_h=st.floats(0.0, 1.0), share_v=st.floats(0.0, 1.0),
       sign_h=st.sampled_from([1.0, -1.0]), sign_v=st.sampled_from([1.0, -1.0]))
def test_field_of_view_follows_from_focal_length_and_frame(
        focal, frame, inside_h, inside_v, share_h, share_v, sign_h, sign_v):
    """In view exactly when each angle is within atan(size / 2f) of the axis."""
    width, height = frame
    camera = CameraModel(focal_length_px=focal, image_width=width, image_height=height)
    off_h = _off_axis(math.degrees(math.atan(width / (2.0 * focal))), inside_h, share_h)
    off_v = _off_axis(math.degrees(math.atan(height / (2.0 * focal))), inside_v, share_v)
    region = project(estimate(aoa_h=90.0 + sign_h * off_h, aoa_v=90.0 + sign_v * off_v),
                     camera)
    assert (region is not None) == (inside_h and inside_v)
