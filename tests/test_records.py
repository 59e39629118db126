"""Record constructors reject non-finite numbers, whoever builds them."""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from conftest import regions_in, to_bbox
from radiofusion import world
from radiofusion.config import RadioParams
from radiofusion.errors import InvalidInputError, require_finite
from radiofusion.fusion import anchor_boxes, coverage
from radiofusion.geometry import (MAX_COORD, Rect, in_box_domain, iou_arrays, rect_areas,
                                 require_box, square)
from radiofusion.imaging import RadioRegion
from radiofusion.radio import ArrayGeometry, CsiFrame, RadioEstimate
from radiofusion.sim_regions import Annotation
from radiofusion.synth import make_world
from radiofusion.world import (ANCHOR_RATIOS, ANCHOR_SCALES, Annotations, Detection, Detections,
                               Regions)

NAN, INF = math.nan, math.inf
GEO = ArrayGeometry(num_antennas=2, element_spacing=0.0258, num_subcarriers=2,
                    base_frequency=5.8e9, frequency_interval=312.5e3)
SAMPLES = np.ones((2, 2), dtype=complex)
RIG = replace(GEO, num_antennas=8, num_subcarriers=32)


@pytest.mark.parametrize("build", [
    lambda: Detection(image_id="a", bbox=(0, 0, NAN, 1), score=0.5),
    lambda: Detection(image_id="a", bbox=(-INF, 0, 1, 1), score=0.5),
    lambda: Detection(image_id="a", bbox=(0, 0, 1, 1), score=NAN),
    lambda: Detection(image_id="a", bbox=(0, 0, 1, 1), score=0.5, cell=(0, 0, INF, 1)),
    lambda: Annotation(image_id="a", bbox=(0, 0, 1, INF)),
    lambda: Annotation(image_id="a", bbox=(NAN, 0, 1, 1)),
    lambda: Annotation(image_id="a", bbox=(0, 0, 1, 1), height_px=NAN),
    lambda: Annotation(image_id="a", bbox=(0, 0, 1, 1), occlusion_fraction=INF),
    lambda: RadioRegion(center_x=NAN, center_y=0.0, edge=1.0, identifier="r"),
    lambda: RadioRegion(center_x=0.0, center_y=0.0, edge=INF, identifier="r"),
    lambda: RadioEstimate(aoa_h=90.0, aoa_v=90.0, tof=INF, magnitude=1.0, identifier="e"),
    lambda: RadioEstimate(aoa_h=90.0, aoa_v=90.0, tof=1e-8, magnitude=NAN, identifier="e"),
    lambda: CsiFrame(np.full((2, 2), complex(1.0, NAN)), GEO),
    lambda: CsiFrame(np.full((2, 2), complex(INF, 0.0)), GEO),
    lambda: CsiFrame(SAMPLES, GEO, timestamp=NAN),
    lambda: RadioParams(aoa_step_deg=NAN),
    lambda: RadioParams(tof_tolerance=NAN),
    lambda: RadioParams(tof_tolerance=INF),
    lambda: RadioParams(person_extent_m=INF),
    lambda: replace(GEO, element_spacing=NAN),
    lambda: replace(GEO, base_frequency=INF),
    lambda: replace(GEO, frequency_interval=NAN),
    lambda: replace(GEO, num_subcarriers=INF),
])
def test_non_finite_values_are_rejected(build):
    with pytest.raises(InvalidInputError):
        build()


@pytest.mark.parametrize("base_frequency", [0.0, -0.0, -5.8e9])
def test_non_positive_base_frequency_is_rejected(base_frequency):
    with pytest.raises(InvalidInputError, match="base frequency must be > 0"):
        replace(GEO, base_frequency=base_frequency)


@pytest.mark.parametrize("field", [
    {"element_spacing": 1e308}, {"base_frequency": 1e308}, {"frequency_interval": 1e-320},
    {"frequency_interval": 1e-308}, {"base_frequency": 1e300, "num_antennas": 10**9},
])
def test_rig_whose_steering_phases_overflow_is_rejected(field):
    with pytest.raises(InvalidInputError, match="steering phases overflow"):
        replace(RIG, **field)


def test_rig_near_the_overflow_bound_is_accepted():
    replace(RIG, base_frequency=1e300, element_spacing=1e7)
    replace(RIG, frequency_interval=1e-306)


@pytest.mark.parametrize("field", [
    {"occlusion_fraction": 5.0}, {"occlusion_fraction": -1.0},
    {"height_px": 0.0}, {"height_px": -3.0},
], ids=["occlusion-above-1", "occlusion-below-0", "zero-height", "negative-height"])
def test_annotation_ranges_are_enforced(field):
    with pytest.raises(InvalidInputError):
        Annotation(image_id="a", bbox=(0, 0, 1, 1), **field)


def test_annotation_range_edges_are_accepted():
    for occlusion in (0.0, 1.0):
        assert Annotation(image_id="a", bbox=(0, 0, 1, 1), height_px=1e-9,
                          occlusion_fraction=occlusion).occlusion_fraction == occlusion


@pytest.mark.parametrize("build", [
    lambda: Detection(image_id="a", bbox=(0, 0, 1e200, 1e200), score=0.5),
    lambda: Detection(image_id="a", bbox=(-1e308, 0, 1e308, 10), score=0.5),
    lambda: Detection(image_id="a", bbox=(1e308, 0, 1e308, 10), score=0.5),
    lambda: Detection(image_id="a", bbox=(0, 0, 1, 1), score=0.5, cell=(0, 0, 1e200, 1e200)),
    lambda: Annotation(image_id="a", bbox=(0, 0, 1e200, 1e200)),
    lambda: Annotation(image_id="a", bbox=(0, -1e300, 1, 1)),
    lambda: RadioRegion(center_x=0.0, center_y=0.0, edge=1e200, identifier="r"),
    lambda: RadioRegion(center_x=1e308, center_y=0.0, edge=1.0, identifier="r"),
    lambda: RadioRegion(center_x=0.0, center_y=0.0, edge=1.9e150, identifier="r"),
], ids=["detection-area", "detection-far-left", "detection-far-corner", "cell-area",
        "annotation-area", "annotation-far-top", "region-edge", "region-center",
        "region-anchor"])
def test_finite_boxes_beyond_the_box_domain_are_rejected(build):
    with pytest.raises(InvalidInputError, match="corners must be finite"):
        build()


def test_boxes_at_the_edge_of_the_box_domain_are_accepted():
    big = (-MAX_COORD, -MAX_COORD, 2 * MAX_COORD, 2 * MAX_COORD)
    assert Detection(image_id="a", bbox=big, score=0.5, cell=big).bbox == big
    assert Annotation(image_id="a", bbox=big).bbox == big
    # A region's largest proposal anchor, 1.25 * sqrt(3) edges tall, spans the domain.
    edge = 2 * MAX_COORD / (1.25 * math.sqrt(3.0))
    _, y, _, h = anchor_boxes(regions_in([RadioRegion(0.0, 0.0, edge, "r")]))[0, -1].tolist()
    assert (y, h) == pytest.approx((-MAX_COORD, 2 * MAX_COORD), rel=1e-15)


_value = (st.floats() | st.floats(-2 * MAX_COORD, 2 * MAX_COORD) | st.floats(-1e3, 1e3)
          | st.sampled_from([MAX_COORD, -MAX_COORD, 1e200, -1e308, 1.5e308]))
_extent = st.floats(min_value=0.0) | st.floats(0.0, 2 * MAX_COORD) | st.floats(0.0, 1e3)


@st.composite
def accepted_boxes(draw):
    """A box that some record constructor accepts, as that record holds it."""
    box = (draw(_value), draw(_value), draw(_extent), draw(_extent))
    kind = draw(st.sampled_from(["detection", "cell", "annotation", "region"]))
    try:
        if kind == "detection":
            return Detection(image_id="a", bbox=box, score=0.5).bbox
        if kind == "cell":
            return Detection(image_id="a", bbox=(0, 0, 1, 1), score=0.5, cell=box).cell
        if kind == "annotation":
            return Annotation(image_id="a", bbox=box).bbox
        return to_bbox(RadioRegion(box[0], box[1], box[2], "r"))
    except InvalidInputError:
        reject()


@settings(max_examples=300, deadline=None)
@given(accepted_boxes(), accepted_boxes())
def test_accepted_boxes_give_finite_overlaps(a, b):
    """Any two boxes the constructors accept have a finite IoU, and a finite
    coverage when the second has positive area, with no numpy warning."""
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        assert np.isfinite(iou_arrays(a, b))
        if rect_areas(b) > 0:
            assert np.isfinite(coverage(a, b, "box"))


_edge_values = st.sampled_from([MAX_COORD, -MAX_COORD, math.nextafter(MAX_COORD, INF),
                                math.nextafter(-MAX_COORD, -INF), 1e308, -1e308,
                                1.7976931348623157e308, NAN, INF, -INF, 0.0, -0.0])
_any_value = st.floats() | st.floats(-2 * MAX_COORD, 2 * MAX_COORD) | _edge_values


def _scalar_accepts(box):
    try:
        require_box("box", box)
    except InvalidInputError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_any_value, _any_value, _any_value, _any_value), max_size=6))
def test_array_box_rule_accepts_what_the_scalar_accepts(boxes):
    """``in_box_domain`` gives, row by row, ``require_box``'s verdict: NaN,
    infinities, the ``MAX_COORD`` boundary and corners where ``x + w``
    overflows included."""
    verdicts = in_box_domain(np.array(boxes, dtype=float).reshape(-1, 4)).tolist()
    assert verdicts == [_scalar_accepts(box) for box in boxes]


_center = (st.floats(-MAX_COORD, MAX_COORD)
           | st.sampled_from([MAX_COORD, -MAX_COORD, 0.9 * MAX_COORD, -0.9 * MAX_COORD]))
_region_edge = (st.floats(0.0, 2 * MAX_COORD, exclude_min=True)
                | st.floats(0.0, 1e140, exclude_min=True) | st.floats(0.0, 1.0, exclude_min=True))


@settings(max_examples=300, deadline=None)
@given(_center, _center, _region_edge)
def test_every_anchor_of_an_accepted_region_is_in_the_box_domain(x, y, edge):
    """Proposals build no records, so the region rule alone keeps their boxes
    in the box domain."""
    try:
        region = RadioRegion(x, y, edge, "r")
    except InvalidInputError:
        reject()
    assert in_box_domain(anchor_boxes(regions_in([region]))).all()


# -- The region check against the ordered checks it replaced -----------------

def oracle_anchor_reach(edge):
    """The edge of the square that holds a region's tallest proposal anchor."""
    return max(ANCHOR_SCALES) * edge * math.sqrt(max(ANCHOR_RATIOS))


@dataclass(frozen=True)
class OracleRegion:
    """``RadioRegion`` with its ordered checks, verbatim: the oracle of the
    comparison chain that now accepts a region."""

    center_x: float
    center_y: float
    edge: float
    identifier: str

    def __post_init__(self) -> None:
        require_finite("region", self.center_x, self.center_y, self.edge)
        require_box("region", self.to_bbox())
        require_box("region anchor", square(self.center_x, self.center_y,
                                            oracle_anchor_reach(self.edge)))
        if self.edge <= 0:
            raise InvalidInputError(f"region edge must be > 0, got {self.edge}")

    def to_bbox(self) -> Rect:
        return square(self.center_x, self.center_y, self.edge)


_PAST = math.nextafter(MAX_COORD, INF)
_REACH_LIMIT = 2 * MAX_COORD / (1.25 * math.sqrt(3.0))  # the largest anchor that fits at 0
_region_specials = st.sampled_from([
    NAN, INF, -INF, 0.0, -0.0, -1.0, -1e-300, 5e-324, 1.0, MAX_COORD, -MAX_COORD, _PAST, -_PAST,
    MAX_COORD / 2, -MAX_COORD / 2, _REACH_LIMIT, math.nextafter(_REACH_LIMIT, INF),
    2 * MAX_COORD, 1e308, -1e308, 1.7976931348623157e308])
_region_any = (_region_specials | st.floats() | st.floats(-2 * MAX_COORD, 2 * MAX_COORD)
               | st.floats(-1e3, 1e3))
# Centers at the domain's edge and edges small enough to fit there, or not.
_region_rim = st.sampled_from([MAX_COORD, -MAX_COORD, _PAST, -_PAST,
                               math.nextafter(MAX_COORD, 0.0), math.nextafter(-MAX_COORD, 0.0),
                               MAX_COORD - 1e135, -MAX_COORD + 1e135])
_region_tiny = (st.sampled_from([5e-324, 1e-300, 1.0, 1e134, 1e135, 2e135, 0.0, -1.0])
                | st.floats(0.0, 3e135))


def _verdict(build):
    """None when ``build()`` succeeds, else the type and message it raised."""
    try:
        build()
    except Exception as exc:  # a refusal of any type must match
        return type(exc), str(exc)
    return None


@settings(max_examples=600, deadline=None)
@given(st.tuples(_region_any, _region_any, _region_any)
       | st.tuples(_region_rim | _region_any, _region_rim | _region_any, _region_tiny))
@example((NAN, 0.0, 1.0))
@example((0.0, 0.0, INF))
@example((0.0, 0.0, 0.0))
@example((0.0, 0.0, -1.0))
@example((MAX_COORD, 0.0, 1e134))
@example((0.0, 0.0, _REACH_LIMIT))
@example((0.0, 0.0, math.nextafter(_REACH_LIMIT, INF)))
@example((0.0, 0.0, 1.9e150))
def test_region_check_accepts_exactly_what_the_ordered_checks_accept(args):
    """The one comparison chain accepts a region iff the ordered checks do,
    and a refused region raises their error type and message."""
    verdict = _verdict(lambda: OracleRegion(*args, "r"))
    assert _verdict(lambda: RadioRegion(*args, "r")) == verdict


@pytest.mark.parametrize("args", [(0.0, 0.0, np.float64(1e308)),
                                  (np.float64(INF), 0.0, np.float64(INF)),
                                  (np.float64(-1.7e308), 0.0, np.float64(1.7e308))])
def test_numpy_scalar_regions_are_refused_without_a_numpy_warning(args):
    """The region check reads its numbers as floats; a numpy scalar whose
    anchor overflows, or whose corner is ``inf - inf``, raised a numpy
    ``RuntimeWarning`` (an error under this suite's warning filter)."""
    with pytest.raises(InvalidInputError):
        RadioRegion(*args, "r")


@pytest.mark.parametrize("args", [(np.float64(0.0), 0.0, np.float64(_REACH_LIMIT)),
                                  (np.float64(-MAX_COORD / 2), np.int64(3), np.float32(1e3)),
                                  (np.float64(MAX_COORD), 0.0, np.float64(1e134)),
                                  (np.float64(0.0), 0.0, np.float64(-1.0))])
def test_numpy_scalar_regions_get_the_float_verdict(args):
    """Accepted or refused as the same numbers as Python floats are."""
    floats = tuple(map(float, args))
    assert _verdict(lambda: RadioRegion(*args, "r")) == _verdict(lambda: RadioRegion(*floats, "r"))


# -- The annotation check against the ordered checks it replaced -------------

@dataclass(frozen=True)
class OracleAnnotation:
    """``Annotation`` with its ordered checks, verbatim: the oracle of the
    comparison chain that now accepts the records ``make_world`` builds."""

    image_id: str
    bbox: Rect
    category: str = "person"
    height_px: float | None = None
    occlusion_fraction: float | None = None

    def __post_init__(self) -> None:
        require_box("annotation", self.bbox)
        require_finite("annotation", self.height_px, self.occlusion_fraction)
        _, _, w, h = self.bbox
        if w <= 0 or h <= 0:
            raise InvalidInputError(f"annotation bbox must have positive extents, got {self.bbox}")
        if self.height_px is not None and self.height_px <= 0:
            raise InvalidInputError(f"annotation height must be > 0, got {self.height_px}")
        if self.occlusion_fraction is not None and not 0.0 <= self.occlusion_fraction <= 1.0:
            raise InvalidInputError(
                f"annotation occlusion must be in [0, 1], got {self.occlusion_fraction}")


# Floats at the box domain's rim and beyond, and values of other types: bools,
# ints (one too large for a float), numpy floats, a string and None.
_annotation_value = (_region_any | _region_rim | st.booleans() | st.integers(-5, 5)
                     | st.sampled_from([10**400, -(10**400), "1", None])
                     | _region_any.map(np.float64)
                     | st.floats(width=32).map(np.float32))
_annotation_box = (st.tuples(*[_annotation_value] * 4)
                   | st.tuples(_region_rim, _region_rim, _region_tiny, _region_tiny)
                   | st.lists(_annotation_value, min_size=3, max_size=5).map(tuple)
                   | st.lists(_annotation_value, min_size=4, max_size=4) | st.none())
_annotation_extra = st.none() | st.none() | _annotation_value  # the chain needs both None


@settings(max_examples=800, deadline=None)
@given(_annotation_box, _annotation_extra, _annotation_extra)
@example((0.0, 0.0, 1.0, 1.0), None, None)
@example((MAX_COORD, -MAX_COORD, 5e-324, 2 * MAX_COORD), None, None)
@example((_PAST, 0.0, 1.0, 1.0), None, None)
@example((-MAX_COORD, 0.0, -0.0, 1.0), None, None)
@example((0.0, 0.0, 1.0, NAN), None, None)
@example((0.0, 0.0, INF, 1.0), None, None)
@example((True, False, True, True), None, None)
@example((np.float64(1e308), 0.0, np.float64(1e308), 1.0), None, None)
@example((np.float64(MAX_COORD), 0.0, np.float64(1.7e308), 1.0), None, None)
@example((np.float32(3e38), 0.0, np.float32(3e38), 1.0), None, None)
@example((0.0, 0.0, 10**400, 1.0), None, None)
@example((0.0, "0", 1.0, 1.0), None, None)
@example((0.0, 0.0, "1", 1.0), None, None)
@example((0.0, 0.0, 1.0, None), None, None)
@example((0.0, 0.0, 1.0), None, None)
@example([0.0, 0.0, 1.0, 1.0], None, None)
@example((0.0, 0.0, 1.0, 1.0), 0.0, None)
@example((0.0, 0.0, 1.0, 1.0), None, -0.0)
@example((0.0, 0.0, 1.0, 1.0), INF, 1.0)
@example((0.0, 0.0, 1.0, 1.0), "1", None)
def test_annotation_check_accepts_exactly_what_the_ordered_checks_accept(box, height, occlusion):
    """The one comparison chain accepts an annotation iff the ordered checks
    do, and a refused one raises their error type and message."""
    verdict = _verdict(lambda: OracleAnnotation("a", box, "person", height, occlusion))
    assert _verdict(lambda: Annotation("a", box, "person", height, occlusion)) == verdict


@pytest.mark.parametrize("box", [(0.0, 0.0, 1.0, 1.0), (0.0, 0.0, -1.0, 1.0)])
def test_a_one_pass_box_gets_the_ordered_verdict(box):
    """A box that can be read only once is read by the ordered checks alone."""
    verdict = _verdict(lambda: OracleAnnotation("a", iter(box)))
    assert _verdict(lambda: Annotation("a", iter(box))) == verdict


@pytest.mark.parametrize("box", [(np.float64(1e308), 0.0, np.float64(1e308), 1.0),
                                 (0.0, np.float64(-1.7e308), 1.0, np.float64(-1.7e308))])
def test_numpy_scalar_annotations_are_refused_without_a_numpy_warning(box):
    """The chain bounds x and y before any sum, as ``require_box`` does, so a
    numpy pair beyond the domain is refused before its sum can overflow."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InvalidInputError, match="corners must be finite"):
            Annotation("a", box)
    assert not caught


def test_make_world_records_take_the_comparison_chain(monkeypatch):
    """Every record ``make_world`` builds is accepted without the ordered checks."""
    monkeypatch.setattr(world, "require_box", lambda *args: pytest.fail("ordered checks ran"))
    _, annotations = make_world(40, max_people=16, seed=3)
    assert annotations


# -- Each table's rule against its record's rule -----------------------------

_cell_value = _region_specials | st.floats() | st.floats(-1e3, 1e3) | st.sampled_from([0.5, 1.5])


@st.composite
def tables(draw):
    """A ``Detections``, ``Annotations`` or ``Regions`` table of up to three
    rows, built from any floats, with None where a field is optional."""
    kind = draw(st.sampled_from([Detections, Annotations, Regions]))
    n = draw(st.integers(0, 3))

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    box = st.tuples(*[_cell_value] * 4) | st.tuples(_region_rim, _region_rim, _region_tiny,
                                                    _region_tiny)
    ids = column(st.sampled_from(["a", "b"]))
    if kind is Detections:
        return Detections.build(ids, column(box), column(_cell_value),
                                column(st.none() | st.just("r")), column(st.none() | box))
    if kind is Annotations:
        return Annotations.build(ids, column(box), column(st.just("person")),
                                 column(st.none() | _cell_value), column(st.none() | _cell_value))
    return Regions.build(ids, column(_cell_value | _region_rim), column(_cell_value | _region_rim),
                         column(_cell_value | _region_tiny), column(st.just("r")))


@settings(max_examples=600, deadline=None)
@given(tables())
@example(Annotations.build(["a"], [(0.0, 0.0, 10.0, 10.0)], ["person"], [INF], [None]))
@example(Regions.build(["a"], [-1e308], [0.0], [1.7e308], ["r"]))
def test_a_table_is_valid_exactly_when_its_records_are_accepted(table):
    """``valid()`` is True iff ``records()`` raises nothing, so a table that
    a reader or writer checks as whole columns holds only what its records hold."""
    assert table.valid() == (_verdict(table.records) is None)
