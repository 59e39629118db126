"""``imaging.batch_project`` on a world's ``Estimates`` against the record code it replaced.

``project``, ``batch_project`` and ``project_estimates`` below are the
per-image record path, kept verbatim as the oracle: the map from image id
to estimates is projected image by image, one ``RadioRegion`` per estimate
in view, and the first refused region raises with its image and estimate
named. The table path makes one whole-world call. On localize-style
inputs, the estimates of every image in sorted id order, both give equal
regions (``.records()`` of the table, every float bit for bit) or raise the
same error.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from radiofusion import imaging, pipeline
from radiofusion.config import RadioParams
from radiofusion.errors import InvalidInputError
from radiofusion.imaging import CameraModel
from radiofusion.radio import SPEED_OF_LIGHT, ArrayGeometry, RadioEstimate, synthesize_csi
from radiofusion.world import Estimates, RadioRegion


# -- Oracle: the record path, verbatim ----------------------------------------

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


def project_estimates(
    estimates_by_image: dict[str, list[RadioEstimate]],
    camera: CameraModel,
    radio_params,
) -> dict[str, list[RadioRegion]]:
    """Project per-image estimates to regions, dropping those behind the camera or out of frame."""
    regions = {}
    for image_id, ests in estimates_by_image.items():
        try:
            regions[image_id] = batch_project(ests, camera, radio_params.person_extent_m,
                                              radio_params.round_trip_factor)
        except InvalidInputError as exc:
            raise InvalidInputError(f"image {image_id!r}: {exc}") from None
    return regions


# -- The table path against the oracle ----------------------------------------

def exact(by_image: dict) -> list:
    """Keys, ids and every value's bits, in order (``==`` equates 0.0 and -0.0)."""
    return [(image_id, r.identifier, *map(float.hex, (r.center_x, r.center_y, r.edge)))
            for image_id, regions in by_image.items() for r in regions]


def outcome(call):
    """What ``call`` returns, as ``exact`` reads it, or the error it raises."""
    try:
        return exact(call())
    except InvalidInputError as exc:
        return type(exc), str(exc)


def both(by_image: dict, camera: CameraModel, radio: RadioParams) -> tuple:
    """The table path's and the oracle's outcome on ``by_image``, in sorted
    id order as ``localize`` gives it."""
    by_image = dict(sorted(by_image.items()))
    table = Estimates.from_records(by_image)
    return (outcome(lambda: imaging.batch_project(table, camera, radio.person_extent_m,
                                                  radio.round_trip_factor).records()),
            outcome(lambda: project_estimates(by_image, camera, radio)))


# Off-axis angles in and out of view, the axis itself and the array's ends;
# delays of everyday rooms, and those so near or far that the region leaves
# the box domain or its edge rounds to 0.
_angle = st.floats(0.0, 180.0) | st.floats(60.0, 120.0) | st.sampled_from([0.0, 90.0, 180.0])
_tof = (st.floats(1e-9, 1e-6) | st.floats(5e-324, 1e300)
        | st.sampled_from([1e-300, 1e300, 5e-324, 2e-8]))
_estimates = st.builds(RadioEstimate, aoa_h=_angle, aoa_v=_angle, tof=_tof,
                       magnitude=st.floats(0.0, 1e3),
                       identifier=st.sampled_from(["p0", "p1", "p2"]))
_maps = st.dictionaries(st.sampled_from(["f0", "f1", "f2", "t1.5"]),
                        st.lists(_estimates, max_size=4, unique_by=lambda e: e.identifier),
                        max_size=4)
_cameras = st.builds(CameraModel, focal_length_px=st.floats(100.0, 5000.0),
                     image_width=st.sampled_from([1280.0, 640.0, 10.0]),
                     image_height=st.sampled_from([720.0, 480.0, 7000.0]))
_radios = st.builds(RadioParams, person_extent_m=st.floats(0.1, 3.0),
                    round_trip_factor=st.sampled_from([1.0, 0.5]))
_far = RadioEstimate(92.0, 88.0, 1e300, 0.0, "p1")


@settings(max_examples=400, deadline=None)
@given(_maps, _cameras, _radios)
@example({"f0": [RadioEstimate(92.0, 88.0, 2e-8, 0.0, "p0")],
          "f1": [RadioEstimate(92.0, 88.0, 2e-8, 0.0, "p0"), _far]},
         CameraModel(3000.0, 1280.0, 720.0), RadioParams())
@example({"f0": [], "f1": [_far], "f2": [RadioEstimate(92.0, 88.0, 1e-300, 0.0, "p0")]},
         CameraModel(3000.0, 1280.0, 720.0), RadioParams())
def test_the_table_path_equals_the_record_path(by_image, camera, radio):
    table, oracle = both(by_image, camera, radio)
    assert table == oracle


def test_the_refused_region_names_its_image_and_estimate():
    by_image = {"f0": [RadioEstimate(92.0, 88.0, 2e-8, 0.0, "p0")],
                "f1": [RadioEstimate(92.0, 88.0, 2e-8, 0.0, "p0"), _far]}
    table, oracle = both(by_image, CameraModel(3000.0, 1280.0, 720.0), RadioParams())
    assert table == oracle == (InvalidInputError,
                               "image 'f1': estimate 'p1': region edge must be > 0, got 0.0")


GEOMETRY = {orientation: ArrayGeometry(num_antennas=8, element_spacing=0.0258,
                                       num_subcarriers=32, base_frequency=5.8e9,
                                       frequency_interval=312.5e3, orientation=orientation)
            for orientation in ("horizontal", "vertical")}


def test_localized_frames_project_alike():
    """``localize``'s own output, people in and out of the frame, some
    images without a partner frame."""
    frames = []
    for image in range(12):
        for orientation in ("horizontal", "vertical")[:1 + (image % 4 != 3)]:
            targets = [(60.0 + 6.0 * image + (3.0 if orientation == "vertical" else 0.0),
                        (image % 5 + 1) * 3e-7, 1.0), (90.0, 2e-6, 0.7)]
            frames.append((synthesize_csi(targets, GEOMETRY[orientation], noise_std=0.05,
                                          seed=image), f"f{image:02d}"))
    radio = RadioParams()
    estimates = pipeline.localize_frames(frames, radio)
    camera = CameraModel(1000.0, 1280.0, 720.0)
    table, oracle = both(estimates.records(), camera, radio)
    assert table == oracle and len(table) > 1
    assert len(estimates) > len(table)  # some fall outside the frame


def test_project_equals_the_record_project():
    """The public one-estimate ``project`` still gives the oracle's region."""
    camera = CameraModel(500.0, 1280.0, 720.0)
    for aoa_h in (0.0, 38.0, 60.5, 90.0, 127.0, 145.0, 180.0):
        for tof in (1e-9, 3e-8, 1e-6):
            estimate = RadioEstimate(aoa_h, 180.0 - aoa_h / 2.0, tof, 1.0, "p")
            assert imaging.project(estimate, camera) == project(estimate, camera)
