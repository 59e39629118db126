"""Round-trip tests for every file schema."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiofusion import fileio
from radiofusion.errors import SchemaError
from radiofusion.fusion import Detection
from radiofusion.imaging import RadioRegion
from radiofusion.radio import ArrayGeometry, CsiFrame, RadioEstimate, synthesize_csi
from radiofusion.sim_regions import Annotation

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
    assert loaded == anns


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
    assert len(loaded) == 1 and loaded[0].image_id == "3"


def test_regions_round_trip(tmp_path):
    regions = {
        "img0": [RadioRegion(center_x=10.5, center_y=20.25, edge=33.125, identifier="r0")],
        "img1": [
            RadioRegion(center_x=1.0, center_y=2.0, edge=3.0, identifier="r0"),
            RadioRegion(center_x=4.0, center_y=5.0, edge=6.0, identifier="r1"),
        ],
    }
    path = tmp_path / "regions.json"
    fileio.write_regions(path, regions)
    assert fileio.read_regions(path) == regions


def test_detections_round_trip(tmp_path):
    dets = [
        Detection(image_id="x", bbox=(0.0, 1.0, 2.0, 3.0), score=0.5),
        Detection(image_id="y", bbox=(1.0, 1.0, 2.0, 2.0), score=0.25,
                  region_id="r1", cell=(0.0, 0.0, 8.0, 8.0)),
    ]
    path = tmp_path / "dets.json"
    fileio.write_detections(path, dets)
    assert fileio.read_detections(path) == dets


def test_estimates_round_trip(tmp_path):
    estimates = {
        "img0": [RadioEstimate(aoa_h=91.0, aoa_v=88.5, tof=42e-9, magnitude=12.5,
                               identifier="p0")],
    }
    path = tmp_path / "est.json"
    fileio.write_estimates(path, estimates)
    assert fileio.read_estimates(path) == estimates


def test_curve_round_trip(tmp_path):
    curve = [(0.0, 1.0), (0.125, 0.5), (1.0, 0.03125)]
    path = tmp_path / "curve.csv"
    fileio.write_curve_csv(path, curve)
    assert fileio.read_curve_csv(path) == curve


def test_report_round_trip(tmp_path):
    payload = {"method": "baseline", "metrics": {"ap": 0.5}}
    path = tmp_path / "report.json"
    fileio.write_report(path, payload)
    assert fileio.read_report(path) == payload


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
    assert fileio.read_detections(path) == [
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
    assert loaded == [Annotation(image_id="a", bbox=(0.0, 0.0, 4.0, 8.0))]
    assert loaded[0].height == 8.0


def test_estimate_magnitude_defaults_to_zero(tmp_path):
    path = tmp_path / "est.json"
    path.write_text(json.dumps({
        "schema": fileio.ESTIMATES_SCHEMA,
        "images": {"a": [{"id": 1, "aoa_h": 90, "aoa_v": 90, "tof": 1e-8}]},
    }))
    assert fileio.read_estimates(path) == {
        "a": [RadioEstimate(aoa_h=90.0, aoa_v=90.0, tof=1e-8, magnitude=0.0, identifier="1")]}


_EST = {"aoa_h": 90.0, "aoa_v": 90.0, "tof": 1e-8}


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
])
def test_malformed_records_raise(tmp_path, read, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaError):
        read(path)


@pytest.mark.parametrize("edit", [
    lambda doc: doc["samples"].__setitem__(0, [1.0, float("inf")]),
    lambda doc: doc["samples"].pop(),
    lambda doc: doc.__setitem__("timestamp", "noon"),
    lambda doc: doc["geometry"].__setitem__("num_antennas", "four"),
], ids=["inf-sample", "missing-pair", "timestamp", "antennas"])
def test_malformed_csi_frames_raise(tmp_path, edit):
    path = tmp_path / "frame.json"
    fileio.write_csi_frame(path, synthesize_csi([(75.0, 40e-9, 1.0)], GEO))
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        fileio.read_csi_frame(path)


# -- read(write(x)) == x over generated records ---------------------------

_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_extent = st.floats(min_value=0.0, allow_infinity=False)
_unit = st.floats(0.0, 1.0)
_angle = st.floats(0.0, 180.0)
_ids = st.text(max_size=8)


def _rects(extent):
    return st.tuples(_finite, _finite, extent, extent)


detections = st.builds(Detection, image_id=_ids, bbox=_rects(_extent),
                       score=_unit, region_id=st.none() | _ids,
                       cell=st.none() | _rects(_extent))
annotations = st.builds(Annotation, image_id=_ids, bbox=_rects(_positive), category=_ids,
                        height_px=st.none() | _finite,
                        occlusion_fraction=st.none() | _finite)


def _by_image(records):
    unique = st.lists(records, max_size=4, unique_by=lambda item: item.identifier)
    return st.dictionaries(_ids, unique, max_size=3)


regions = _by_image(st.builds(RadioRegion, center_x=_finite, center_y=_finite,
                              edge=_positive, identifier=_ids))
estimates = _by_image(st.builds(RadioEstimate, aoa_h=_angle, aoa_v=_angle, tof=_positive,
                                magnitude=_finite, identifier=_ids))
geometries = st.builds(ArrayGeometry, num_antennas=st.integers(2, 4),
                       element_spacing=_positive, num_subcarriers=st.integers(2, 4),
                       base_frequency=_finite, frequency_interval=_positive,
                       orientation=st.sampled_from(("horizontal", "vertical")))


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
    fileio.write_detections(path, dets)
    assert fileio.read_detections(path) == dets


@st.composite
def annotated_images(draw):
    """An image list and annotations on those images only."""
    image_ids = draw(st.lists(_ids, min_size=1, max_size=3))
    anns = draw(st.lists(annotations, max_size=5))
    return image_ids, [replace(ann, image_id=draw(st.sampled_from(image_ids))) for ann in anns]


@_round_trip
@given(annotated_images())
def test_annotations_read_write_property(tmp_path_factory, world):
    image_ids, anns = world
    path = tmp_path_factory.mktemp("prop") / "ann.json"
    fileio.write_annotations(path, image_ids, anns)
    assert fileio.read_annotations(path) == (image_ids, anns)


@_round_trip
@given(regions)
def test_regions_read_write_property(tmp_path_factory, regions_by_image):
    path = tmp_path_factory.mktemp("prop") / "regions.json"
    fileio.write_regions(path, regions_by_image)
    assert fileio.read_regions(path) == regions_by_image


@_round_trip
@given(estimates)
def test_estimates_read_write_property(tmp_path_factory, estimates_by_image):
    path = tmp_path_factory.mktemp("prop") / "est.json"
    fileio.write_estimates(path, estimates_by_image)
    assert fileio.read_estimates(path) == estimates_by_image


@_round_trip
@given(csi_frames(), st.none() | _ids)
def test_csi_read_write_property(tmp_path_factory, frame, image_id):
    path = tmp_path_factory.mktemp("prop") / "frame.json"
    fileio.write_csi_frame(path, frame, image_id=image_id)
    loaded, loaded_id = fileio.read_csi_frame(path)
    assert (loaded.geometry, loaded.timestamp, loaded_id) == (
        frame.geometry, frame.timestamp, image_id)
    assert loaded.samples.tobytes() == frame.samples.tobytes()
