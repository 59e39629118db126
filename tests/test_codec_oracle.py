"""The record reader against the per-value codec it replaced.

``fileio._read_fields`` inlines the per-field loop and takes a finite float
or a string as it is. The oracle below is the earlier codec: one ``_field``
call and one reader call per value, kept verbatim but for two rules added
since: a text field takes only a string or an integer (``_text``), and a
constructor's ``InvalidInputError`` gets the record's context in front.
Both must give the same record, or the same exception type and message,
for any JSON object.
"""

import json
import math
from dataclasses import MISSING, fields
from functools import partial
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiofusion import fileio
from radiofusion.errors import InvalidInputError, SchemaError
from radiofusion.fusion import Detection
from radiofusion.geometry import Rect
from radiofusion.imaging import RadioRegion
from radiofusion.radio import ArrayGeometry, CsiFrame, RadioEstimate
from radiofusion.sim_regions import Annotation
from radiofusion.world import Detections


# -- Oracle: the per-value codec -------------------------------------------

def _expect(value, kind: type, context: str):
    if not isinstance(value, kind):
        kind_name = "an object" if kind is dict else f"a {kind.__name__}"
        raise SchemaError(f"{context}: expected {kind_name}, got {type(value).__name__}")
    return value


def _number(kind: type, value):
    """``kind(value)`` for ``float`` or ``int``: finite, not a boolean, and for
    ``int`` integral (``2.0`` reads as 2, ``2.5`` is rejected, not truncated)."""
    fractional = kind is int and isinstance(value, float) and not value.is_integer()
    if not isinstance(value, bool) and not fractional:
        try:
            number = kind(value)
            if math.isfinite(number):
                return number
        except (TypeError, ValueError, OverflowError):
            pass
    noun = "integer" if kind is int else "number"
    raise SchemaError(f"expected a finite {noun}, got {value!r}")


_float = partial(_number, float)


def _text(value) -> str:
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise SchemaError(f"expected a string or an integer, got {value!r}")
    return str(value)


def _as_bbox(value) -> Rect:
    if not isinstance(value, (list, tuple)) or len(value) != 4:
        raise SchemaError("expected a 4-element [x, y, w, h] list")
    return tuple(map(_float, value))


_KEYS = {"identifier": "id", "height_px": "height", "occlusion_fraction": "occlusion"}
_READERS = {str: _text, float: _float, int: partial(_number, int), Rect: _as_bbox}
_READERS.update({hint | None: read for hint, read in _READERS.items()})


def _spec(cls: type, **defaults) -> tuple:
    """The entries of one record dataclass; ``defaults`` adds file-only defaults."""
    hints = get_type_hints(cls)
    return tuple((f.name, _KEYS.get(f.name, f.name), _READERS[hints[f.name]],
                  defaults.get(f.name, f.default)) for f in fields(cls))


_SPECS = {cls: _spec(cls) for cls in (Detection, Annotation, RadioRegion, ArrayGeometry)}
_SPECS[RadioEstimate] = _spec(RadioEstimate, magnitude=0.0)


def _field(record: dict, key: str, read, default, context: str):
    """One value of a JSON object: read, else the default when null or absent."""
    value = record.get(key)
    if value is None:
        if default is MISSING:
            raise SchemaError(f"{context}: missing required field {key!r}")
        return default
    try:
        return read(value)
    except SchemaError as exc:
        raise SchemaError(f"{context}: {key}: {exc}") from None


def _from_record(record, cls: type, context: str):
    """One ``cls`` record from its JSON object."""
    _expect(record, dict, context)
    values = {name: _field(record, key, read, default, context)
              for name, key, read, default in _SPECS[cls]}
    try:
        return cls(**values)
    except InvalidInputError as exc:
        raise type(exc)(f"{context}: {exc}") from None


# -- Generated JSON objects ------------------------------------------------

_numbers = (st.floats() | st.sampled_from([0.0, -0.0, 1.0, math.nan, math.inf, -math.inf])
            | st.integers() | st.integers(2**63, 2**80))
_numeric_strings = (st.floats().map(repr) | st.integers().map(str)
                    | st.sampled_from(["1e400", "nan", "-inf", " 2 ", "0x1"]))
_boxes = st.lists(st.floats() | st.sampled_from([math.nan, math.inf, -math.inf]),
                  min_size=3, max_size=5)
_anything = (_numbers | _numeric_strings | st.booleans() | st.none() | st.text(max_size=3)
             | st.lists(_numbers | _numeric_strings | st.booleans() | st.none(), max_size=6)
             | _boxes)
# Values that each reader accepts and most record constructors keep.
_PLAUSIBLE = {
    _float: st.floats(0.0, 1.0, exclude_min=True) | st.floats(0.0, 180.0),
    _as_bbox: st.lists(st.floats(1.0, 100.0) | st.integers(0, 100), min_size=4, max_size=4),
    _READERS[int]: st.integers(2, 4) | st.sampled_from([2.0, 3.0]),
    _text: st.sampled_from(["a", "horizontal", "vertical"]) | st.integers(0, 9),
}


@st.composite
def objects(draw, cls):
    """A JSON object for ``cls``: each key absent, plausible or anything."""
    record = {}
    for _, key, read, _ in _SPECS[cls]:
        choice = draw(st.sampled_from(("absent", "anything") + ("plausible",) * 8))
        if choice != "absent":
            record[key] = draw(_PLAUSIBLE[read] if choice == "plausible" else _anything)
    return record


def _outcome(read, *args):
    """What ``read(*args)`` returns, or the type and message of what it raises."""
    try:
        return read(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return type(exc), str(exc)


_records = settings(max_examples=300, deadline=None)


@st.composite
def cases(draw):
    """A record type and, mostly, a JSON object for it; else any JSON value."""
    cls = draw(st.sampled_from(sorted(_SPECS, key=lambda cls: cls.__name__)))
    return cls, draw(_anything if draw(st.integers(0, 9)) == 0 else objects(cls))


@_records
@given(cases())
def test_reader_matches_per_value_codec(case):
    cls, record = case
    assert _outcome(fileio._from_record, record, cls, "ctx") == _outcome(
        _from_record, record, cls, "ctx")


@_records
@given(_anything)
def test_bbox_reader_matches_per_value_codec(value):
    assert _outcome(fileio._as_bbox, value) == _outcome(_as_bbox, value)


def _require(record: dict, key: str, context: str):
    if key not in _expect(record, dict, context):
        raise SchemaError(f"{context}: missing required field {key!r}")
    return record[key]


def _read_csi_frame(path):
    data = fileio.load_json(path, fileio.CSI_SCHEMA)
    geometry = _from_record(_require(data, "geometry", str(path)),
                            ArrayGeometry, f"{path}: geometry")
    samples = _field(data, "samples", partial(fileio._as_samples, geometry), MISSING, str(path))
    timestamp = _field(data, "timestamp", _float, 0.0, str(path))
    return CsiFrame(samples, geometry, timestamp), _field(data, "image_id", _text, None, str(path))


_GEO = {"num_antennas": 2, "element_spacing": 0.0258, "num_subcarriers": 2,
        "base_frequency": 5.8e9, "frequency_interval": 312.5e3}


@settings(max_examples=100, deadline=None)
@given(st.fixed_dictionaries({"schema": st.just(fileio.CSI_SCHEMA)}, optional={
    "geometry": st.just(_GEO) | objects(ArrayGeometry) | _anything,
    "samples": st.just([[1.0, 0.0], [0.5, -0.5], [0, 1], [2, 0.0]]) | _anything,
    "timestamp": st.floats(0.0, 10.0) | _anything,
    "image_id": st.sampled_from(["img0"]) | _anything,
}))
def test_csi_reader_matches_per_value_codec(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("csi") / "frame.json"
    path.write_text(json.dumps(doc), encoding="utf-8")

    def read(reader):
        frame, image_id = reader(path)
        return frame.samples.tobytes(), frame.geometry, frame.timestamp, image_id

    assert _outcome(read, fileio.read_csi_frame) == _outcome(read, _read_csi_frame)


def test_finite_floats_read_as_themselves():
    record = {"image_id": "a", "bbox": [0.5, -0.0, 2.0, 3.0], "score": 0.25}
    det = fileio._from_record(record, Detection, "ctx")
    assert det.bbox == (0.5, -0.0, 2.0, 3.0) and math.copysign(1.0, det.bbox[1]) == -1.0
    assert det.score is record["score"]
    # A float field given an int, a numeric string or a numpy float still converts.
    loose = {"image_id": 3, "bbox": [0, "1", np.float64(2.0), 3], "score": "0.25"}
    assert fileio._from_record(loose, Detection, "ctx") == Detection(
        image_id="3", bbox=(0.0, 1.0, 2.0, 3.0), score=0.25)


# -- Detection files: the column reader against the per-record reader ------

def _read_records(path):
    """The per-record detection reader: one ``_from_record`` per record."""
    data = fileio.load_json(path, fileio.DETECTIONS_SCHEMA)
    records = _expect(_require(data, "detections", str(path)), list, f"{path}: detections")
    return [_from_record(record, Detection, str(path)) for record in records]


def _read_columns(path):
    return fileio.read_detections(path).records()


_GOOD = {"image_id": "a", "bbox": [0.0, 0.0, 1.0, 1.0], "score": 0.5}


@pytest.mark.parametrize("record", [
    {**_GOOD, "score": True},
    {**_GOOD, "bbox": ["1.5", 0.0, 1.0, 1.0]},
    {**_GOOD, "bbox": [0.0, math.nan, 1.0, 1.0]},
    {**_GOOD, "bbox": [0.0, 0.0, math.inf, 1.0]},
    {**_GOOD, "score": math.nan},
    {**_GOOD, "cell": [0.0, 0.0, 1.0, -math.inf]},
    {**_GOOD, "image_id": None},
    {"bbox": [0.0, 0.0, 1.0, 1.0], "score": 0.5},
    {**_GOOD, "bbox": [0.0, 0.0, 1.0]},
    {**_GOOD, "bbox": [0.0, 0.0, 1.0, 1.0, 1.0]},
    {**_GOOD, "bbox": [0.0, 0.0, -1.0, 1.0]},
    {**_GOOD, "bbox": [1e150, 0.0, 1.0, 1.0]},
    {**_GOOD, "cell": [-1e150, 0.0, -1e140, 1.0]},
    {**_GOOD, "score": 1.0000000000000002},
    {**_GOOD, "score": 1, "bbox": [0, 0, 1, 1], "image_id": 7},
    {**_GOOD, "region_id": 5, "cell": [0, 0, 1.0, 1.0]},
    {**_GOOD, "region_id": None, "cell": None},
    5,
], ids=["bool-score", "numeric-string-bbox", "nan-bbox", "infinite-bbox", "nan-score",
        "infinite-cell", "null-image-id", "missing-image-id", "3-element-bbox",
        "5-element-bbox", "negative-extent", "corner-beyond-max-coord", "cell-beyond-max-coord",
        "score-above-1", "integers", "integer-region-id", "nulls", "not-an-object"])
@pytest.mark.parametrize("first", [True, False], ids=["first", "second"])
def test_detection_column_reader_matches_the_per_record_reader(tmp_path, record, first):
    """Each record, before or after a valid one, gives the same detections or
    the same exception type and message from both readers."""
    path = tmp_path / "dets.json"
    records = [record, _GOOD] if first else [_GOOD, record]
    path.write_text(json.dumps({"schema": fileio.DETECTIONS_SCHEMA, "detections": records}))
    assert _outcome(_read_columns, path) == _outcome(_read_records, path)


def test_integer_values_read_and_write_back_as_floats(tmp_path):
    path = tmp_path / "dets.json"
    path.write_text(json.dumps({"schema": fileio.DETECTIONS_SCHEMA, "detections": [
        {"image_id": "a", "bbox": [0, 0, 4, 4], "score": 1}]}))
    fileio.write_detections(path, fileio.read_detections(path))
    assert json.loads(path.read_text())["detections"] == [
        {"image_id": "a", "bbox": [0.0, 0.0, 4.0, 4.0], "score": 1.0}]
    assert '"score": 1.0' in path.read_text()


@settings(max_examples=200, deadline=None)
@given(st.lists(objects(Detection) | _anything, max_size=4))
def test_detection_files_read_alike(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("dets") / "dets.json"
    path.write_text(json.dumps({"schema": fileio.DETECTIONS_SCHEMA, "detections": records}))
    assert _outcome(_read_columns, path) == _outcome(_read_records, path)


# -- Detection files: the column writer against the stdlib encoder ---------

_ids = st.text(max_size=6) | st.sampled_from(["\ud800", 'a"b\\c', "\n\t\x00", "é", "日本", ""])
_coords = (st.floats(-1e6, 1e6) | st.integers(-1000, 1000).map(float)
           | st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e-310, -1e-320]))
_extents = st.floats(0.0, 1e6) | st.integers(0, 1000).map(float) | st.sampled_from([-0.0, 5e-324])
_quads = st.tuples(_coords, _coords, _extents, _extents)
_detections = st.lists(st.builds(
    Detection, image_id=_ids, bbox=_quads,
    score=st.floats(0.0, 1.0) | st.sampled_from([-0.0, 0.0, 1.0, 5e-324]),
    region_id=st.none() | _ids, cell=st.none() | _quads), max_size=5)


@settings(max_examples=200, deadline=None)
@given(_detections)
def test_detection_writer_bytes_equal_the_stdlib_encoder(tmp_path_factory, detections):
    """``write_detections`` spells columns as ``json.dumps(doc, indent=1,
    sort_keys=True)`` spells the records, plus a newline."""
    path = tmp_path_factory.mktemp("dets") / "dets.json"
    fileio.write_detections(path, Detections.from_records(detections))
    doc = {"schema": fileio.DETECTIONS_SCHEMA, "detections": [
        {key: list(value) if isinstance(value, tuple) else value
         for key, value in vars(det).items() if value is not None} for det in detections]}
    assert path.read_bytes() == (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode()
