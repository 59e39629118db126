"""Project radio estimates onto the camera image plane.

The receiver arrays and the camera are assumed co-located and axis aligned:
angles are measured from each array axis, so 90 degrees is the optical axis.
Range comes from the time of flight (``r = c * tof * range_factor``, with
``range_factor=0.5`` for radar-style round trips), the point-to-plane
distance from the two arrival angles, and the image coordinates from the
tangent mapping through the pixel focal length. Each localization becomes a
square region whose side scales like a fixed physical extent divided by the
point-to-plane distance (a ``world.RadioRegion``). An estimate behind the
camera plane or outside the frame has no region. Lens distortion and
extrinsics are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidInputError
from .radio import SPEED_OF_LIGHT, RadioEstimate
from .world import RadioRegion


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
    if not (0 < person_extent_m < math.inf and 0 < range_factor < math.inf):  # also refuses NaN
        raise InvalidInputError(
            f"person_extent_m and range_factor must be finite and > 0, got "
            f"{person_extent_m} and {range_factor}"
        )

    off_h = estimate.aoa_h - 90.0
    off_v = estimate.aoa_v - 90.0
    r = SPEED_OF_LIGHT * estimate.tof * range_factor
    plane_dist = r * math.cos(math.radians(off_h)) * math.cos(math.radians(off_v))
    # At 90 degrees off axis the exact cosine is 0, though the float cosine is not.
    if abs(off_h) >= 90.0 or abs(off_v) >= 90.0 or plane_dist <= 0:
        return None
    center_x = camera.image_width / 2.0 + camera.focal_length_px * math.tan(math.radians(off_h))
    center_y = camera.image_height / 2.0 + camera.focal_length_px * math.tan(math.radians(off_v))
    if not (0.0 <= center_x <= camera.image_width and 0.0 <= center_y <= camera.image_height):
        return None

    edge = person_extent_m * camera.focal_length_px / plane_dist
    try:
        return RadioRegion(center_x, center_y, edge, estimate.identifier)
    except InvalidInputError as exc:
        raise InvalidInputError(f"estimate {estimate.identifier!r}: {exc}") from None


def batch_project(
    estimates: list[RadioEstimate],
    camera: CameraModel,
    person_extent_m: float = 1.0,
    range_factor: float = 1.0,
) -> list[RadioRegion]:
    """Project many estimates, dropping those ``project`` maps to None.

    Identifiers of the surviving regions are preserved.
    """
    regions = [project(estimate, camera, person_extent_m, range_factor) for estimate in estimates]
    return [region for region in regions if region is not None]
