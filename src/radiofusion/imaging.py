"""Project radio estimates onto the camera image plane.

The receiver arrays and the camera are assumed co-located and axis aligned:
angles are measured from each array axis, so 90 degrees is the optical axis.
Range comes from the time of flight (``r = c * tof * range_factor``, with
``range_factor=0.5`` for radar-style round trips), the point-to-plane
distance from the two arrival angles, and the image coordinates from the
tangent mapping through the pixel focal length. Each localization becomes a
square region whose side scales like a fixed physical extent divided by the
point-to-plane distance (a ``world.RadioRegion``). An estimate behind the
camera plane or outside the frame has no region. ``batch_project`` maps a
world's ``Estimates`` to ``Regions`` row by row in scalar ``math``, as numpy's
SIMD ``tan`` may differ from ``math.tan`` in the last bit. Lens distortion
and extrinsics are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidInputError
from .radio import SPEED_OF_LIGHT
from .world import Estimates, RadioEstimate, RadioRegion, Regions


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera whose field of view is its frame: half-angles atan(W/2f) by atan(H/2f)."""

    focal_length_px: float
    image_width: float
    image_height: float

    def __post_init__(self) -> None:
        for name in ("focal_length_px", "image_width", "image_height"):
            if not 0 < getattr(self, name) < math.inf:  # also refuses NaN
                raise InvalidInputError(f"camera {name} must be finite and > 0")


def project(
    estimate: RadioEstimate,
    camera: CameraModel,
    person_extent_m: float = 1.0,
    range_factor: float = 1.0,
) -> RadioRegion | None:
    """Map one (aoa_h, aoa_v, tof) estimate to a square image region.

    Returns None when the estimate is not in front of the camera (an angle at
    or beyond 90 degrees off the optical axis, or a point-to-plane distance
    that underflows to 0) or its center lands outside the image, which is the
    camera's field of view. Both factors must be finite and > 0.
    """
    place = _place(estimate.aoa_h, estimate.aoa_v, estimate.tof, camera, person_extent_m,
                   range_factor)
    try:
        return None if place is None else RadioRegion(*place, estimate.identifier)
    except InvalidInputError as exc:
        raise InvalidInputError(f"estimate {estimate.identifier!r}: {exc}") from None


def batch_project(
    estimates: Estimates,
    camera: CameraModel,
    person_extent_m: float = 1.0,
    range_factor: float = 1.0,
) -> Regions:
    """Project a world's estimates as ``project`` does, dropping those it
    maps to None; each region keeps its estimate's identifier and image,
    over the estimates' id table. A row that no ``RadioEstimate`` holds, or
    whose region no ``RadioRegion`` holds, raises the record's error after its image."""
    image, *columns = [column.tolist() for column in estimates.columns()]
    if estimates.valid():  # else a row may not even reach ``math`` (an infinite angle)
        rows = [(estimates.ids[i], *place, identifier)
                for i, aoa_h, aoa_v, tof, _, identifier in zip(image, *columns)
                if (place := _place(aoa_h, aoa_v, tof, camera, person_extent_m, range_factor))]
        regions = Regions.build(*(zip(*rows) if rows else [()] * 5), table=estimates.ids)
        if regions.valid():
            return regions
    for i, *row in zip(image, *columns):  # the record path names the first refused
        try:
            project(RadioEstimate(*row), camera, person_extent_m, range_factor)
        except InvalidInputError as exc:
            raise InvalidInputError(f"image {estimates.ids[i]!r}: {exc}") from None
    raise AssertionError("valid() refused a row that the records hold")


def _place(aoa_h: float, aoa_v: float, tof: float, camera: CameraModel,
           person_extent_m: float, range_factor: float) -> tuple[float, float, float] | None:
    """The center and edge of one estimate's region, or None where ``project`` gives None."""
    if not (0 < person_extent_m < math.inf and 0 < range_factor < math.inf):  # also refuses NaN
        raise InvalidInputError(f"person_extent_m and range_factor must be finite and > 0, "
                                f"got {person_extent_m} and {range_factor}")
    off_h = aoa_h - 90.0
    off_v = aoa_v - 90.0
    r = SPEED_OF_LIGHT * tof * range_factor
    plane_dist = r * math.cos(math.radians(off_h)) * math.cos(math.radians(off_v))
    # At 90 degrees off axis the exact cosine is 0, though the float cosine is not.
    if abs(off_h) >= 90.0 or abs(off_v) >= 90.0 or plane_dist <= 0:
        return None
    center_x = camera.image_width / 2.0 + camera.focal_length_px * math.tan(math.radians(off_h))
    center_y = camera.image_height / 2.0 + camera.focal_length_px * math.tan(math.radians(off_v))
    if not (0.0 <= center_x <= camera.image_width and 0.0 <= center_y <= camera.image_height):
        return None
    return center_x, center_y, person_extent_m * camera.focal_length_px / plane_dist
