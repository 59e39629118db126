"""Project radio estimates onto the camera image plane.

The receiver arrays and the camera are assumed co-located and axis aligned:
angles are measured from each array axis, so 90 degrees is the optical axis.
Range comes from the time of flight (``r = c * tof * range_factor``, with
``range_factor=0.5`` for radar-style round trips), the point-to-plane
distance from the two arrival angles, and the image coordinates from the
tangent mapping through the pixel focal length. Each localization becomes a
square region whose side scales like a fixed physical extent divided by the
point-to-plane distance. Lens distortion and extrinsics are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BehindCameraError, InvalidInputError, require_finite
from .geometry import Rect, square
from .radio import SPEED_OF_LIGHT, RadioEstimate


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera with pixel-measured focal length and angular FOV."""

    focal_length_px: float
    image_width: float
    image_height: float
    fov_h: float
    fov_v: float

    def __post_init__(self) -> None:
        if self.focal_length_px <= 0:
            raise InvalidInputError("focal length must be > 0 pixels")
        if self.image_width <= 0 or self.image_height <= 0:
            raise InvalidInputError("image dimensions must be > 0")
        for name, fov in (("fov_h", self.fov_h), ("fov_v", self.fov_v)):
            if not 0.0 < fov < 180.0:
                raise InvalidInputError(f"{name}={fov} outside (0, 180) degrees")


@dataclass(frozen=True)
class RadioRegion:
    """Square image-plane region born from one radio localization."""

    center_x: float
    center_y: float
    edge: float
    identifier: str

    def __post_init__(self) -> None:
        require_finite("region", self.center_x, self.center_y, self.edge)
        if self.edge <= 0:
            raise InvalidInputError(f"region edge must be > 0, got {self.edge}")

    def to_bbox(self) -> Rect:
        return square(self.center_x, self.center_y, self.edge)


def project(
    estimate: RadioEstimate,
    camera: CameraModel,
    person_extent_m: float = 1.0,
    range_factor: float = 1.0,
) -> RadioRegion | None:
    """Map one (aoa_h, aoa_v, tof) estimate to a square image region.

    Returns None when the estimate falls outside the camera FOV or its
    center lands outside the image. Raises BehindCameraError when the
    point-to-plane distance is non-positive (angles at or beyond 90 degrees
    off the optical axis).
    """
    if person_extent_m <= 0:
        raise InvalidInputError("person_extent_m must be > 0")
    if estimate.tof <= 0:
        raise InvalidInputError("estimate tof must be > 0")

    off_h = estimate.aoa_h - 90.0
    off_v = estimate.aoa_v - 90.0
    # At 90 degrees off axis the exact cosine is 0, so the point-to-plane
    # distance is not positive even though float cosines never quite reach it.
    if abs(off_h) >= 90.0 or abs(off_v) >= 90.0:
        raise BehindCameraError(
            f"angles ({estimate.aoa_h}, {estimate.aoa_v}) give a non-positive "
            "point-to-plane distance"
        )
    r = SPEED_OF_LIGHT * estimate.tof * range_factor
    plane_dist = r * math.cos(math.radians(off_h)) * math.cos(math.radians(off_v))
    if plane_dist <= 0:
        raise BehindCameraError(
            f"point-to-plane distance {plane_dist:.3g} m is not in front of the camera"
        )
    if abs(off_h) > camera.fov_h / 2.0 or abs(off_v) > camera.fov_v / 2.0:
        return None

    center_x = camera.image_width / 2.0 + camera.focal_length_px * math.tan(math.radians(off_h))
    center_y = camera.image_height / 2.0 + camera.focal_length_px * math.tan(math.radians(off_v))
    if not (0.0 <= center_x <= camera.image_width and 0.0 <= center_y <= camera.image_height):
        return None

    edge = person_extent_m * camera.focal_length_px / plane_dist
    return RadioRegion(center_x, center_y, edge, estimate.identifier)


def batch_project(
    estimates: list[RadioEstimate],
    camera: CameraModel,
    person_extent_m: float = 1.0,
    range_factor: float = 1.0,
) -> list[RadioRegion]:
    """Project many estimates, dropping the ones that cannot be imaged.

    Out-of-FOV and out-of-frame estimates are skipped, as are degenerate
    boundary angles that would land behind the camera plane; identifiers of
    the surviving regions are preserved.
    """
    regions: list[RadioRegion] = []
    for estimate in estimates:
        try:
            region = project(estimate, camera, person_extent_m, range_factor)
        except BehindCameraError:
            continue
        if region is not None:
            regions.append(region)
    return regions
