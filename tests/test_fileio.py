"""Round-trip tests for every file schema."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import read_curve_csv
from radiofusion import fileio
from radiofusion.errors import InvalidInputError, SchemaError
from radiofusion.geometry import MAX_COORD
from radiofusion.imaging import RadioRegion
from radiofusion.radio import ArrayGeometry, CsiFrame, RadioEstimate, synthesize_csi
from radiofusion.sim_regions import Annotation
from radiofusion.world import Detection, Detections, Estimates, Regions

GEO = ArrayGeometry(num_antennas=4, element_spacing=0.0258, num_subcarriers=8,
                    base_frequency=5.8e9, frequency_interval=312.5e3)


def test_csi_round_trip(tmp_path):
    frame = synthesize_csi([(75.0, 40e-9, 1.0)], GEO, noise_std=0.1, seed=3,
                           timestamp=1.25)
    path = tmp_path / "frame.json"
    fileio.write_csi_frame(path, frame, image_id="img7")
    loaded, image_id = fileio.read_csi_frame(path)
    assert image_id == "img7"
    assert loaded.geometry == GEO
    assert loaded.timestamp == 1.25
    np.testing.assert_array_equal(loaded.samples, frame.samples)


def test_csi_writer_takes_strided_samples(tmp_path):
    """Every other column of a wider matrix writes as its contiguous copy does."""
    wide = synthesize_csi([(75.0, 40e-9, 1.0)], replace(GEO, num_subcarriers=16),
                          noise_std=0.1).samples
    wide[0, 0] = complex(-0.0, 0.0)
    strided, copy = tmp_path / "strided.json", tmp_path / "copy.json"
    fileio.write_csi_frame(strided, CsiFrame(wide[:, ::2], GEO))
    fileio.write_csi_frame(copy, CsiFrame(wide[:, ::2].copy(), GEO))
    assert strided.read_bytes() == copy.read_bytes()
    assert str(json.loads(strided.read_text())["samples"][0]) == "[-0.0, 0.0]"


def test_annotations_round_trip(tmp_path):
    anns = [
        Annotation(image_id="a", bbox=(1.0, 2.0, 30.0, 60.0)),
        Annotation(image_id="b", bbox=(5.0, 5.0, 20.0, 40.0), height_px=42.0,
                   occlusion_fraction=0.25),
    ]
    path = tmp_path / "ann.json"
    fileio.write_annotations(path, ["a", "b", "empty"], anns, image_size=(640, 480))
    image_ids, loaded = fileio.read_annotations(path)
    assert image_ids == ["a", "b", "empty"]
    assert loaded.records() == anns


def test_annotations_ignore_flag_dropped(tmp_path):
    path = tmp_path / "ann.json"
    payload = {
        "schema": fileio.ANNOTATIONS_SCHEMA,
        "images": [{"id": 3}],
        "annotations": [
            {"image_id": 3, "bbox": [0, 0, 10, 10]},
            {"image_id": 3, "bbox": [5, 5, 10, 10], "ignore": True},
        ],
    }
    path.write_text(json.dumps(payload))
    image_ids, loaded = fileio.read_annotations(path)
    assert image_ids == ["3"]  # integer ids normalized to strings
    assert [ann.image_id for ann in loaded.records()] == ["3"]


def test_regions_round_trip(tmp_path):
    regions = {
        "img0": [RadioRegion(center_x=10.5, center_y=20.25, edge=33.125, identifier="r0")],
        "img1": [
            RadioRegion(center_x=1.0, center_y=2.0, edge=3.0, identifier="r0"),
            RadioRegion(center_x=4.0, center_y=5.0, edge=6.0, identifier="r1"),
        ],
    }
    path = tmp_path / "regions.json"
    fileio.write_regions(path, Regions.from_records(regions))
    assert fileio.read_regions(path).records() == regions
    fileio.write_regions(tmp_path / "columns.json", fileio.read_regions(path))
    assert (tmp_path / "columns.json").read_bytes() == path.read_bytes()


def test_detections_round_trip(tmp_path):
    dets = [
        Detection(image_id="x", bbox=(0.0, 1.0, 2.0, 3.0), score=0.5),
        Detection(image_id="y", bbox=(1.0, 1.0, 2.0, 2.0), score=0.25,
                  region_id="r1", cell=(0.0, 0.0, 8.0, 8.0)),
    ]
    path = tmp_path / "dets.json"
    fileio.write_detections(path, Detections.from_records(dets))
    assert fileio.read_detections(path).records() == dets


@pytest.mark.parametrize("column, index", [("scores", 0), ("boxes", (0, 1)), ("cells", (0, 2))],
                         ids=["score", "box", "cell"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_detection_tables_are_refused(tmp_path, column, index, value):
    """A table built without its checks that holds a NaN or an infinity is
    refused, not written: ``nan`` and ``inf`` are not JSON numbers."""
    table = Detections.from_records([Detection("a", (0.0, 0.0, 1.0, 1.0), 0.5, "r",
                                               (0.0, 0.0, 1.0, 1.0))])
    getattr(table, column)[index] = value
    path = tmp_path / "out" / "dets.json"
    with pytest.raises(InvalidInputError, match="detections hold a score outside"):
        fileio.write_detections(path, table)
    assert not path.exists()


@pytest.mark.parametrize("column, index, value", [
    ("scores", 0, 1.5), ("scores", 0, -0.5), ("boxes", (0, 2), -1.0),
    ("boxes", (0, 0), 2 * MAX_COORD), ("cells", (0, 3), 2 * MAX_COORD),
], ids=["score-above-1", "score-below-0", "negative-width", "box-far-left", "cell-far-bottom"])
def test_detection_tables_out_of_range_are_refused(tmp_path, column, index, value):
    """A finite value that no ``Detection`` holds is refused, not written for
    ``read_detections`` to refuse."""
    table = Detections.from_records([Detection("a", (0.0, 0.0, 1.0, 1.0), 0.5, "r",
                                               (0.0, 0.0, 1.0, 1.0))])
    getattr(table, column)[index] = value
    path = tmp_path / "out" / "dets.json"
    with pytest.raises(InvalidInputError, match="detections hold a score outside"):
        fileio.write_detections(path, table)
    assert not path.parent.exists()


def test_estimates_round_trip(tmp_path):
    estimates = {
        "img0": [RadioEstimate(aoa_h=91.0, aoa_v=88.5, tof=42e-9, magnitude=12.5,
                               identifier="p0")],
    }
    path = tmp_path / "est.json"
    fileio.write_estimates(path, Estimates.from_records(estimates))
    assert fileio.read_estimates(path).records() == estimates


def test_curve_round_trip(tmp_path):
    curve = [(0.0, 1.0), (0.125, 0.5), (1.0, 0.03125)]
    path = tmp_path / "curve.csv"
    fileio.write_curve_csv(path, curve)
    assert read_curve_csv(path) == curve


def test_report_round_trip(tmp_path):
    payload = {"method": "baseline", "metrics": {"ap": 0.5}}
    path = tmp_path / "report.json"
    fileio.write_report(path, payload)
    assert fileio.load_json(path) == payload


def test_schema_mismatch_raises(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "something-else/9", "detections": []}))
    with pytest.raises(SchemaError):
        fileio.read_detections(path)


def test_missing_field_raises(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "schema": fileio.DETECTIONS_SCHEMA,
        "detections": [{"image_id": "a", "score": 0.5}],
    }))
    with pytest.raises(SchemaError):
        fileio.read_detections(path)


def test_invalid_json_raises(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError):
        fileio.read_detections(path)


def test_null_region_id_reads_as_absent(tmp_path):
    path = tmp_path / "dets.json"
    path.write_text(json.dumps({
        "schema": fileio.DETECTIONS_SCHEMA,
        "detections": [{"image_id": "a", "bbox": [0, 0, 4, 4], "score": 0.5,
                        "region_id": None, "cell": None}],
    }))
    assert fileio.read_detections(path).records() == [
        Detection(image_id="a", bbox=(0.0, 0.0, 4.0, 4.0), score=0.5)]


def test_null_height_reads_as_absent(tmp_path):
    path = tmp_path / "ann.json"
    path.write_text(json.dumps({
        "schema": fileio.ANNOTATIONS_SCHEMA,
        "images": [{"id": "a"}],
        "annotations": [{"image_id": "a", "bbox": [0, 0, 4, 8], "height": None,
                         "occlusion": None}],
    }))
    _, loaded = fileio.read_annotations(path)
    assert loaded.records() == [Annotation(image_id="a", bbox=(0.0, 0.0, 4.0, 8.0))]
    assert loaded.height.tolist() == [8.0]


def test_estimate_magnitude_defaults_to_zero(tmp_path):
    path = tmp_path / "est.json"
    path.write_text(json.dumps({
        "schema": fileio.ESTIMATES_SCHEMA,
        "images": {"a": [{"id": 1, "aoa_h": 90, "aoa_v": 90, "tof": 1e-8}]},
    }))
    assert fileio.read_estimates(path).records() == {
        "a": [RadioEstimate(aoa_h=90.0, aoa_v=90.0, tof=1e-8, magnitude=0.0, identifier="1")]}


_EST = {"aoa_h": 90.0, "aoa_v": 90.0, "tof": 1e-8}
_DET = {"bbox": [0, 0, 4, 4], "score": 0.5}


@pytest.mark.parametrize("read, payload", [
    (fileio.read_detections, {"schema": "detections/1", "detections": [
        {"image_id": "a", "bbox": [0, 0, 4, 4], "score": 0.5, "cell": [0, 0, 8]}]}),
    (fileio.read_annotations, {"schema": "annotations/1", "annotations": [
        {"image_id": "a", "bbox": [0, 0, 4, 4], "occlusion": float("inf")}]}),
    (fileio.read_regions, {"schema": "regions/1", "images": {"a": [
        {"id": "r", "center_x": 1.0, "center_y": [], "edge": 2.0}]}}),
    (fileio.read_estimates, {"schema": "estimates/1", "images": {"a": [
        {"id": "p", **_EST, "magnitude": "loud"}]}}),
    (fileio.read_estimates, {"schema": "estimates/1", "images": {"a": [
        {"id": "p", **_EST}, {"id": "p", **_EST}]}}),
    # A text field takes a string or an integer, nothing else.
    (fileio.read_detections, {"schema": "detections/1", "detections": [
        {"image_id": [1, 2], **_DET}]}),
    (fileio.read_detections, {"schema": "detections/1", "detections": [
        {"image_id": True, **_DET}]}),
    (fileio.read_detections, {"schema": "detections/1", "detections": [
        {"image_id": 7.0, **_DET}]}),
    (fileio.read_detections, {"schema": "detections/1", "detections": [
        {"image_id": "a", "region_id": {"a": 1}, **_DET}]}),
    (fileio.read_annotations, {"schema": "annotations/1", "images": [{"id": True}]}),
    (fileio.read_annotations, {"schema": "annotations/1", "annotations": [
        {"image_id": "a", "bbox": [0, 0, 4, 4], "category": ["person"]}]}),
    (fileio.read_regions, {"schema": "regions/1", "images": {"a": [
        {"id": False, "center_x": 1.0, "center_y": 1.0, "edge": 2.0}]}}),
    (fileio.read_estimates, {"schema": "estimates/1", "images": {"a": [
        {"id": 0.5, **_EST}]}}),
])
def test_malformed_records_raise(tmp_path, read, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaError, match=re.escape(f"{path}: ")):
        read(path)


def test_repeated_image_id_raises(tmp_path):
    path = tmp_path / "ann.json"
    path.write_text(json.dumps({
        "schema": fileio.ANNOTATIONS_SCHEMA,
        "images": [{"id": "a"}, {"id": 7}, {"id": "b"}, {"id": "7"}],
        "annotations": [],
    }))
    with pytest.raises(SchemaError, match="id '7' more than once"):
        fileio.read_annotations(path)


@pytest.mark.parametrize("size", [None, (1280.0, 720.0)], ids=["no-size", "size"])
def test_plain_annotation_file_is_read_as_columns(tmp_path, monkeypatch, size):
    """Image entries and annotations of the exact JSON types are read as whole
    columns: no record is read field by field."""
    path = tmp_path / "ann.json"
    fileio.write_annotations(path, ["a", "b"], [Annotation("a", (0.0, 1.0, 2.0, 3.0))], size)
    monkeypatch.setattr(fileio, "_read_fields", lambda *args: pytest.fail("record path"))
    image_ids, annotations = fileio.read_annotations(path)
    assert image_ids == ["a", "b"] and len(annotations) == 1


@pytest.mark.parametrize("image, message", [
    ({"id": "a", "width": 0}, "images: width: expected a finite number > 0, got 0"),
    ({"id": "a", "width": 0.0}, "images: width: expected a finite number > 0, got 0.0"),
    ({"id": "a", "width": -1.0}, "images: width: expected a finite number > 0, got -1.0"),
    ({"id": "a", "height": True}, "images: height: expected a finite number, got True"),
    ({"width": 1.0}, "images: missing required field 'id'"),
], ids=["zero-int-width", "zero-width", "negative-width", "bool-height", "missing-id"])
def test_refused_image_entry_names_its_field(tmp_path, image, message):
    path = tmp_path / "ann.json"
    path.write_text(json.dumps({"schema": fileio.ANNOTATIONS_SCHEMA,
                                "images": [{"id": "b", "width": 9.0}, image]}))
    with pytest.raises(SchemaError) as caught:
        fileio.read_annotations(path)
    assert str(caught.value) == f"{path}: {message}"


def test_integer_image_id_reads_as_its_decimal_string(tmp_path):
    path = tmp_path / "ann.json"
    path.write_text(json.dumps({"schema": fileio.ANNOTATIONS_SCHEMA,
                                "images": [{"id": "b", "width": 9.0}, {"id": 7}]}))
    assert fileio.read_annotations(path)[0] == ["b", "7"]


@pytest.mark.parametrize("field", [
    {"occlusion": 5.0}, {"occlusion": -1.0}, {"height": 0.0}, {"height": -3.0},
], ids=["occlusion-above-1", "occlusion-below-0", "zero-height", "negative-height"])
def test_annotation_out_of_range_raises(tmp_path, field):
    path = tmp_path / "ann.json"
    path.write_text(json.dumps({
        "schema": fileio.ANNOTATIONS_SCHEMA, "images": [{"id": "a"}],
        "annotations": [{"image_id": "a", "bbox": [0, 0, 4, 8], **field}],
    }))
    with pytest.raises(InvalidInputError, match=re.escape(f"{path}: annotation")):
        fileio.read_annotations(path)


@pytest.mark.parametrize("read, payload", [
    (fileio.read_detections, {"schema": "detections/1", "detections": [
        {"image_id": "a", "bbox": [0, 0, 4, 4], "score": 1.5}]}),
    (fileio.read_regions, {"schema": "regions/1", "images": {"a": [
        {"id": "r", "center_x": 1.0, "center_y": 1.0, "edge": -2.0}]}}),
    (fileio.read_estimates, {"schema": "estimates/1", "images": {"a": [
        {"id": "p", **_EST, "tof": -1e-8}]}}),
    (fileio.read_detections, {"schema": "detections/1", "detections": [
        {"image_id": "a", "bbox": [0, 0, 1e200, 1e200], "score": 0.5}]}),
    (fileio.read_regions, {"schema": "regions/1", "images": {"a": [
        {"id": "r", "center_x": 1.0, "center_y": 1.0, "edge": 1e200}]}}),
    (fileio.read_annotations, {"schema": "annotations/1", "images": [{"id": "a"}],
                               "annotations": [{"image_id": "a", "bbox": [0, 0, 1e200, 1e200]}]}),
], ids=["detection-score", "region-edge", "estimate-tof", "detection-box-domain",
        "region-box-domain", "annotation-box-domain"])
def test_record_constructor_errors_name_the_file(tmp_path, read, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(InvalidInputError, match=re.escape(f"{path}: ")):
        read(path)


@pytest.mark.parametrize("edit", [
    lambda doc: doc["samples"].__setitem__(0, [1.0, float("inf")]),
    lambda doc: doc["samples"].pop(),
    lambda doc: doc.__setitem__("timestamp", "noon"),
    lambda doc: doc["geometry"].__setitem__("num_antennas", "four"),
    lambda doc: doc.__setitem__("image_id", [1]),
], ids=["inf-sample", "missing-pair", "timestamp", "antennas", "image-id"])
def test_malformed_csi_frames_raise(tmp_path, edit):
    path = tmp_path / "frame.json"
    fileio.write_csi_frame(path, synthesize_csi([(75.0, 40e-9, 1.0)], GEO))
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        fileio.read_csi_frame(path)


@pytest.mark.parametrize("kind", [float, int])
@pytest.mark.parametrize("pair", [[True, 0.5], [0, False], [False, True]],
                         ids=["true-real", "false-imag", "both"])
def test_boolean_csi_samples_among_numbers_raise(tmp_path, kind, pair):
    """numpy reads [true, 0.5] as [1.0, 0.5]; a JSON boolean is no sample."""
    path = tmp_path / "frame.json"
    fileio.write_csi_frame(path, synthesize_csi([(75.0, 40e-9, 1.0)], GEO))
    doc = json.loads(path.read_text())
    doc["samples"] = [[kind(round(v * 8)) for v in sample] for sample in doc["samples"]]
    doc["samples"][1] = [kind(0), kind(1)]  # exact 0 and 1 are still samples
    path.write_text(json.dumps(doc))
    loaded, _ = fileio.read_csi_frame(path)
    assert loaded.samples.ravel()[1] == 1j
    doc["samples"][3] = pair
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="pairs of finite numbers"):
        fileio.read_csi_frame(path)


# -- read(write(x)) == x over generated records ---------------------------

_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_unit = st.floats(0.0, 1.0)
_angle = st.floats(0.0, 180.0)
_ids = st.text(max_size=8)
# Box corners lie within MAX_COORD of 0: half of it for the corner and half
# for the extent keeps every far corner inside.
_coord = st.floats(-MAX_COORD / 2, MAX_COORD / 2)
_extent = st.floats(0.0, MAX_COORD / 2)
_positive_extent = st.floats(0.0, MAX_COORD / 2, exclude_min=True)


def _rects(extent):
    return st.tuples(_coord, _coord, extent, extent)


detections = st.builds(Detection, image_id=_ids, bbox=_rects(_extent),
                       score=_unit, region_id=st.none() | _ids,
                       cell=st.none() | _rects(_extent))
annotations = st.builds(Annotation, image_id=_ids, bbox=_rects(_positive_extent), category=_ids,
                        height_px=st.none() | _positive,
                        occlusion_fraction=st.none() | _unit)


def _by_image(records):
    unique = st.lists(records, max_size=4, unique_by=lambda item: item.identifier)
    return st.dictionaries(_ids, unique, max_size=3)


# A region's tallest anchor reaches 1.25 * sqrt(3) / 2 < 1.1 edges from its center.
regions = _by_image(st.builds(RadioRegion, center_x=_coord, center_y=_coord,
                              edge=st.floats(0.0, MAX_COORD / 2.2, exclude_min=True),
                              identifier=_ids))
estimates = _by_image(st.builds(RadioEstimate, aoa_h=_angle, aoa_v=_angle, tof=_positive,
                                magnitude=_finite, identifier=_ids))


def _geometry(fields: dict) -> ArrayGeometry | None:
    """The rig of ``fields``, or None where its steering phases overflow."""
    try:
        return ArrayGeometry(**fields)
    except InvalidInputError:
        return None


geometries = st.fixed_dictionaries(dict(
    num_antennas=st.integers(2, 4), element_spacing=_positive, num_subcarriers=st.integers(2, 4),
    base_frequency=_positive, frequency_interval=_positive,
    orientation=st.sampled_from(("horizontal", "vertical")))).map(_geometry).filter(bool)


@st.composite
def csi_frames(draw):
    geometry = draw(geometries)
    count = geometry.num_antennas * geometry.num_subcarriers
    parts = draw(st.lists(_finite, min_size=2 * count, max_size=2 * count))
    samples = (np.array(parts[0::2]) + 1j * np.array(parts[1::2])).reshape(
        geometry.num_antennas, geometry.num_subcarriers)
    return CsiFrame(samples=samples, geometry=geometry, timestamp=draw(_finite))


_round_trip = settings(max_examples=40, deadline=None)


@_round_trip
@given(st.lists(detections, max_size=5))
def test_detections_read_write_property(tmp_path_factory, dets):
    path = tmp_path_factory.mktemp("prop") / "dets.json"
    fileio.write_detections(path, Detections.from_records(dets))
    assert fileio.read_detections(path).records() == dets


@st.composite
def annotated_images(draw):
    """An image list without repeats and annotations on those images only."""
    image_ids = draw(st.lists(_ids, min_size=1, max_size=3, unique=True))
    anns = draw(st.lists(annotations, max_size=5))
    return image_ids, [replace(ann, image_id=draw(st.sampled_from(image_ids))) for ann in anns]


@_round_trip
@given(annotated_images())
def test_annotations_read_write_property(tmp_path_factory, world):
    image_ids, anns = world
    path = tmp_path_factory.mktemp("prop") / "ann.json"
    fileio.write_annotations(path, image_ids, anns)
    read_ids, loaded = fileio.read_annotations(path)
    assert (read_ids, loaded.records()) == (image_ids, anns)


@_round_trip
@given(regions)
def test_regions_read_write_property(tmp_path_factory, regions_by_image):
    path = tmp_path_factory.mktemp("prop") / "regions.json"
    fileio.write_regions(path, Regions.from_records(regions_by_image))
    assert fileio.read_regions(path).records() == regions_by_image


@_round_trip
@given(estimates)
def test_estimates_read_write_property(tmp_path_factory, estimates_by_image):
    path = tmp_path_factory.mktemp("prop") / "est.json"
    fileio.write_estimates(path, Estimates.from_records(estimates_by_image))
    assert fileio.read_estimates(path).records() == estimates_by_image


@_round_trip
@given(csi_frames(), st.none() | _ids)
def test_csi_read_write_property(tmp_path_factory, frame, image_id):
    path = tmp_path_factory.mktemp("prop") / "frame.json"
    fileio.write_csi_frame(path, frame, image_id=image_id)
    loaded, loaded_id = fileio.read_csi_frame(path)
    assert (loaded.geometry, loaded.timestamp, loaded_id) == (
        frame.geometry, frame.timestamp, image_id)
    assert loaded.samples.tobytes() == frame.samples.tobytes()


# -- dump_json bytes == json.dumps(indent=1, sort_keys=True) ----------------

_strings = st.text() | st.sampled_from(["", "\x00\x1f\x7f", "caf\u00e9 \u2603 \U0001f600",
                                        '"quoted" \\ /', "\ud800"])
_json_floats = (st.floats() | st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf")])
                | st.floats().map(np.float64))
_json_scalars = (_strings | st.integers() | st.integers(2**63, 2**90).flatmap(
    lambda n: st.sampled_from([n, -n])) | _json_floats | st.booleans() | st.none())
_json_values = st.recursive(
    _json_scalars,
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(_strings, children, max_size=4)),
    max_leaves=25)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(_strings, _json_values, max_size=5))
def test_dump_json_bytes_match_stdlib(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("dump") / "doc.json"
    fileio.dump_json(path, doc)
    assert path.read_bytes() == (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("doc", [
    {1: "a"}, {"a": {None: 1}}, {"a": [{("t",): 1}]}, {"a": {"b": 1, 2: 3}},
    {"a": object()}, {"a": np.int64(1)}, {"a": {1.5}},
], ids=["int-key", "none-key", "tuple-key", "mixed-keys", "object", "numpy-int", "set"])
def test_dump_json_rejects_what_json_cannot_hold(tmp_path, doc):
    path = tmp_path / "new" / "doc.json"
    with pytest.raises(TypeError):
        fileio.dump_json(path, doc)
    assert not path.parent.exists()


def test_unencodable_report_keeps_previous_file(tmp_path):
    path = tmp_path / "report.json"
    fileio.write_report(path, {"a": [1.0, 2.0], "b": "kept"})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        fileio.write_report(path, {"a": [1.0, 2.0], "b": object()})
    assert path.read_bytes() == before
