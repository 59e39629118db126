"""``pipeline.localize_frames`` streams its frames against the batch code it replaced.

The streaming call holds a frame only until its image has both
orientations and computes the spectra of complete pairs ``CHUNK_PAIRS``
pairs at a time. ``localize_frames`` below is the batch version it
replaced, kept verbatim as the oracle: it groups every frame before it
computes any spectrum. On any stream with at most one fault the two return
equal estimates (``==`` on every record, every float bit for bit) or raise
the same exception; with more faults the stream raises the first met in
argument order, whatever its chunk.
"""

import weakref
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiofusion import pipeline
from radiofusion.config import RadioParams
from radiofusion.errors import InvalidInputError, SchemaError
from radiofusion.pipeline import _time_key
from radiofusion.radio import ArrayGeometry, CsiFrame, RadioEstimate, compute_spectrum, \
    default_aoa_grid, default_tof_grid, fuse_axes, pick_peaks, synthesize_csi


# -- Oracle: the batch localize_frames, verbatim ----------------------------

def localize_frames(
    frames: list[tuple[CsiFrame, str | None]],
    radio_params,
) -> dict[str, list[RadioEstimate]]:
    """Estimate people per image from paired horizontal/vertical CSI frames.

    Frames are grouped by image id (falling back to the frame timestamp);
    each group must contain exactly one frame per orientation. Peaks above
    the configured fraction of the strongest response are paired across the
    two axes by time-of-flight agreement.
    """
    groups: dict[str, dict[str, CsiFrame]] = {}
    for frame, image_id in frames:
        key = image_id if image_id is not None else _time_key(frame.timestamp)
        slot = groups.setdefault(key, {})
        orientation = frame.geometry.orientation
        if orientation in slot:
            raise InvalidInputError(
                f"image {key!r} has more than one {orientation} frame"
            )
        slot[orientation] = frame

    aoa_grid = default_aoa_grid(radio_params.aoa_step_deg)
    estimates: dict[str, list[RadioEstimate]] = {}
    for key in sorted(groups):
        slot = groups[key]
        if "horizontal" not in slot or "vertical" not in slot:
            estimates[key] = []
            continue
        peaks = {}
        for orientation, frame in slot.items():
            tof_grid = default_tof_grid(frame.geometry, radio_params.num_tof_bins)
            spectrum = compute_spectrum(frame, aoa_grid, tof_grid)
            peaks[orientation] = pick_peaks(spectrum, radio_params.peak_threshold)
        tolerance = radio_params.tof_tolerance
        if tolerance is None:
            interval = slot["horizontal"].geometry.frequency_interval
            tolerance = 2.0 / (radio_params.num_tof_bins * interval)
        estimates[key] = fuse_axes(peaks["horizontal"], peaks["vertical"], tolerance)
    return estimates


# -- Streams ------------------------------------------------------------------

RADIO = RadioParams()
GEOMETRY = {orientation: ArrayGeometry(num_antennas=4, element_spacing=0.0258,
                                       num_subcarriers=8, base_frequency=5.8e9,
                                       frequency_interval=312.5e3, orientation=orientation)
            for orientation in ("horizontal", "vertical")}
ORIENTATIONS = [("horizontal", "vertical"), ("vertical", "horizontal"),
                ("horizontal",), ("vertical",)]


def _frame(image: int, orientation: str, by_time: bool, amplitude: float = 1.0):
    """A frame of ``image`` keyed by its id or, without one, its timestamp."""
    aoa = 60.0 + 7.0 * (image % 9) + (5.0 if orientation == "vertical" else 0.0)
    frame = synthesize_csi([(aoa, (image % 5 + 1) * 3e-7, amplitude)], GEOMETRY[orientation],
                           noise_std=0.05 * amplitude, seed=image,
                           timestamp=image + 0.5)
    return frame, None if by_time else f"img{image:02d}"


class ReadFault:
    """Stands in a stream for a frame whose file is refused."""


def _stream(items):
    for item in items:
        if isinstance(item, ReadFault):
            raise SchemaError("frame file refused")
        yield item


@st.composite
def streams(draw, max_faults=1):
    """Frames of up to 9 images, each with both orientations or one, in
    pair by pair, every-horizontal-first or shuffled order, with up to
    ``max_faults`` faults: a repeated orientation, a frame whose spectrum
    overflows, or a frame that cannot be read."""
    images = []
    for image in range(draw(st.integers(0, 9))):
        by_time = draw(st.booleans())
        images.append([_frame(image, orientation, by_time)
                       for orientation in draw(st.sampled_from(ORIENTATIONS))])
    order = draw(st.sampled_from(["pairs", "horizontal first", "shuffled"]))
    if order == "pairs":
        items = [item for frames in images for item in frames]
    elif order == "horizontal first":
        items = sorted((item for frames in images for item in frames),
                       key=lambda item: item[0].geometry.orientation == "vertical")
    else:
        items = draw(st.permutations([item for frames in images for item in frames]))
    for _ in range(draw(st.integers(0, max_faults))):
        fault = draw(st.sampled_from(["overflow", "repeat", "read"]))
        if fault == "read":
            items.insert(draw(st.integers(0, len(items))), ReadFault())
            continue
        frames = [index for index, item in enumerate(items) if not isinstance(item, ReadFault)]
        if not frames:
            continue
        index = draw(st.sampled_from(frames))
        frame, image_id = items[index]
        if fault == "repeat":  # before or after the pair settles, as drawn
            items.insert(draw(st.integers(0, len(items))), (frame, image_id))
        else:  # an unpaired frame's spectrum is never computed, so not a fault
            image = int(frame.timestamp)
            items[index] = _frame(image, frame.geometry.orientation, image_id is None,
                                  amplitude=1e307)
    return items


def _outcome(localize, items, chunk=None):
    """What ``localize`` returns or raises on a stream of ``items``."""
    with mock.patch.object(pipeline, "CHUNK_PAIRS", chunk or pipeline.CHUNK_PAIRS):
        try:
            return localize(_stream(items), RADIO)
        except (InvalidInputError, SchemaError) as exc:
            return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(streams(), st.integers(1, 4))
def test_a_stream_with_at_most_one_fault_equals_the_batch(items, chunk):
    """Small chunks split pairs across chunk boundaries."""
    assert _outcome(pipeline.localize_frames, items, chunk) == _outcome(localize_frames, items)


@settings(max_examples=100, deadline=None)
@given(streams(max_faults=3), st.integers(1, 4))
def test_the_fault_raised_is_the_same_for_every_chunk(items, chunk):
    assert (_outcome(pipeline.localize_frames, items, chunk)
            == _outcome(pipeline.localize_frames, items, 1))


@pytest.mark.parametrize("later", ["repeat", "overflow"])
def test_of_two_faults_the_first_met_in_argument_order_is_raised(later):
    """Image 1's pair overflows and is complete before the second fault
    comes: a repeated frame, which the batch met first while grouping, or
    image 0's overflowing pair, which the batch computed first in key order."""
    first = [_frame(1, "horizontal", False, amplitude=1e307), _frame(1, "vertical", False)]
    if later == "repeat":
        second = [_frame(0, "horizontal", False)] * 2
        batch = "image 'img00' has more than one horizontal frame"
    else:
        second = [_frame(0, "horizontal", False, amplitude=1e307), _frame(0, "vertical", False)]
        batch = "spectrum of CSI frame t=0.5 overflows"
    items = first + second
    assert _outcome(pipeline.localize_frames, items) == (
        InvalidInputError, "spectrum of CSI frame t=1.5 overflows")
    assert _outcome(localize_frames, items) == (InvalidInputError, batch)


@pytest.mark.parametrize("at", [1, 2, 3], ids=["before", "settled", "later"])
def test_a_repeated_orientation_is_refused_before_and_after_its_pair_settles(at):
    """With chunks of one pair, image 0's pair is computed at its second frame."""
    horizontal = _frame(0, "horizontal", False)
    items = [horizontal, _frame(0, "vertical", False), _frame(1, "horizontal", False)]
    items.insert(at, horizontal)
    refused = (InvalidInputError, "image 'img00' has more than one horizontal frame")
    assert _outcome(pipeline.localize_frames, items, 1) == refused
    assert _outcome(localize_frames, items) == refused


def test_frames_keyed_by_timestamp_stream_like_the_batch():
    items = [_frame(image, orientation, True)
             for orientation in ("horizontal", "vertical") for image in range(5)]
    estimates = _outcome(pipeline.localize_frames, items, 2)
    assert sorted(estimates) == [_time_key(image + 0.5) for image in range(5)]
    assert estimates == _outcome(localize_frames, items)


@pytest.mark.parametrize("lone", [0, 3])
def test_a_stream_holds_one_chunk_and_the_frames_waiting_for_a_partner(lone):
    """Frames alive, counted each time the stream makes one: at most one
    chunk of pairs, the frame waiting for its partner and ``lone`` frames
    that never get one. The batch holds every frame."""
    live, peak = [0], [0]

    def counted(items):
        for image, orientation, by_time in items:
            frame, image_id = _frame(image, orientation, by_time)
            live[0] += 1
            weakref.finalize(frame, lambda: live.__setitem__(0, live[0] - 1))
            peak[0] = max(peak[0], live[0])
            yield frame, image_id

    chunk = pipeline.CHUNK_PAIRS
    pairs = 4 * chunk + 3
    items = [(image, "horizontal", True) for image in range(pairs, pairs + lone)]
    items += [(image, orientation, image % 2 == 0)
              for image in range(pairs) for orientation in ("horizontal", "vertical")]
    streamed = pipeline.localize_frames(counted(items), RADIO)
    assert 2 * chunk <= peak[0] <= 2 * chunk + 1 + lone
    assert live[0] == 0
    peak[0] = 0
    assert streamed == localize_frames(counted(items), RADIO)
    assert peak[0] == len(items)
