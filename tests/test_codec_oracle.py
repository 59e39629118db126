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
import re
from dataclasses import MISSING, fields
from functools import partial
from json.encoder import encode_basestring_ascii as _escape
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radiofusion import fileio
from radiofusion.errors import InvalidInputError, SchemaError
from radiofusion.geometry import MAX_COORD, Rect
from radiofusion.imaging import RadioRegion
from radiofusion.radio import ArrayGeometry, CsiFrame, RadioEstimate
from radiofusion.sim_regions import Annotation
from radiofusion.world import Detection, Detections, Regions


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


# The detection writer that the row templates replaced, kept verbatim.
_BOX = "[\n    %r,\n    %r,\n    %r,\n    %r\n   ]"
_ROW = '{\n   "bbox": ' + _BOX + '%s,\n   "image_id": %s%s,\n   "score": %r\n  }'


def oracle_write_detections(path, detections: Detections) -> None:
    """``Detections`` columns, whose rows stream into the file; every string
    is escaped before it opens."""
    names = [_escape(key) for key in detections.ids]
    regions = ["" if rid is None else ',\n   "region_id": ' + _escape(rid)
               for rid in detections.region_ids.tolist()]
    rows = zip(detections.image.tolist(), map(np.ndarray.tolist, detections.boxes),
               map(np.ndarray.tolist, detections.cells), regions, detections.scores.tolist())
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{\n "detections": [' + ("\n  " if regions else ""))
        fh.writelines((",\n  " if n else "") + _ROW % (
            *box, "" if cell[0] != cell[0] else ',\n   "cell": ' + _BOX % tuple(cell),
            names[i], region, score) for n, (i, box, cell, region, score) in enumerate(rows))
        fh.write(("\n ]" if regions else "]") + f',\n "schema": "{fileio.DETECTIONS_SCHEMA}"\n}}\n')


@settings(max_examples=100, deadline=None)
@given(st.lists(_detections.map(tuple), max_size=3).map(lambda parts: sum(parts, ())))
def test_detection_writer_bytes_equal_the_writer_it_replaced(tmp_path_factory, detections):
    folder = tmp_path_factory.mktemp("dets")
    table = Detections.from_records(list(detections))
    oracle_write_detections(folder / "old.json", table)
    assert _written(fileio.write_detections, folder / "new.json", table) == (
        folder / "old.json").read_bytes()


# -- Annotation, region and estimate files: templates against the stdlib ---
# Each file must equal ``json.dumps`` of its records after each value goes
# through its reader, the value the file reads back as. Half the examples
# draw plain values, which fill the row templates as they are; the other
# half mix in ints and numpy floats where a float goes and ints where text
# goes, which go through their readers first, as does a float column whose
# sum passes the largest float. Every list takes the template path.


def _record(obj) -> dict:
    """``obj``'s JSON object, each value as its reader reads it back."""
    return {key: list(read(value)) if read is _as_bbox else read(value)
            for name, key, read, _ in _SPECS[type(obj)]
            if (value := getattr(obj, name)) is not None}


def _read_back(obj):
    """``obj`` as its file reads back: each value through its reader."""
    return type(obj)(*(None if (value := getattr(obj, name)) is None else read(value)
                       for name, _, read, _ in _SPECS[type(obj)]))


def _stdlib_bytes(doc) -> bytes:
    return (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode()


def _written(write, path, *args) -> bytes:
    """The bytes ``write`` puts at ``path``, the same at one row per format
    call, which splits every file of two or more rows, as at the default.
    No record dict is built and no table is turned into records."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fileio, "_to_record", lambda obj: pytest.fail("record path"))
        for table in (Detections, Regions):
            patch.setattr(table, "records", lambda self: pytest.fail("record path"))
        patch.setattr(fileio, "CHUNK_ROWS", 1)
        write(path, *args)
        small = path.read_bytes()
        patch.setattr(fileio, "CHUNK_ROWS", 256)
        write(path, *args)
    assert path.read_bytes() == small
    return small


def _numbers(plain, odd: bool):
    """``plain`` floats; when ``odd``, also numpy floats and the int 1."""
    return plain | plain.map(np.float64) | st.just(1) if odd else plain


def _texts(odd: bool):
    return _ids | st.integers(-3, 3) if odd else _ids


_lengths = st.floats(1e-3, 1e6) | st.sampled_from([5e-324, 1.0, 1e100])


def _annotations(odd: bool):
    number = partial(_numbers, odd=odd)
    return st.builds(Annotation, image_id=_ids, bbox=st.tuples(
        number(_coords), number(_coords), number(_lengths), number(_lengths)),
        category=_texts(odd), height_px=st.none() | number(_lengths),
        occlusion_fraction=st.none() | number(st.floats(0.0, 1.0)))


def _regions(odd: bool):
    number = partial(_numbers, odd=odd)
    return st.builds(RadioRegion, center_x=number(_coords), center_y=number(_coords),
                     edge=number(st.floats(1e-3, 1e6)), identifier=_texts(odd))


def _estimates(odd: bool):
    number = partial(_numbers, odd=odd)
    return st.builds(RadioEstimate, aoa_h=number(st.floats(0.0, 180.0)),
                     aoa_v=number(st.floats(0.0, 180.0)), tof=number(st.floats(1e-12, 1e-6)),
                     magnitude=number(st.floats(-1e6, 1e6)), identifier=_texts(odd))


def _annotation_files(odd: bool):
    sizes = st.none() | st.tuples(_numbers(_lengths, odd), _numbers(_lengths, odd))
    return st.tuples(st.lists(_texts(odd), max_size=4), st.lists(_annotations(odd), max_size=4),
                     sizes)


def _maps(records, odd: bool, keys=_texts):
    """Image maps of up to 3 images of up to 3 records, empty ones included,
    whose keys stay distinct as strings."""
    return st.dictionaries(keys(odd), st.lists(records(odd), max_size=3), max_size=3).filter(
        lambda by_image: len(set(map(str, by_image))) == len(by_image))


def _map_doc(schema, by_image) -> dict:
    return {"schema": schema, "images": {str(image_id): [_record(item) for item in items]
                                         for image_id, items in by_image.items()}}


def _image_doc(image_ids, image_size) -> list:
    size = {} if image_size is None else dict(zip(("width", "height"), map(_size, image_size)))
    return [{"id": _text(image_id), **size} for image_id in image_ids]


_oracle = settings(max_examples=100, deadline=None)


@_oracle
@given(st.booleans().flatmap(_annotation_files))
@example(([], [], None))
@example((["\ud800", "a\x00é"], [], (1280.0, 720.0)))
@example((["a"], [Annotation("a", (0.0, 0.0, 1.0, 1.0), height_px=1e308)] * 2, None))
@example(([7, "b"], [Annotation("a", (0, np.float64(0.5), 1, 1e149), 3, 1e308)] * 2, (640, 1)))
def test_annotation_writer_bytes_equal_the_stdlib_encoder(tmp_path_factory, file):
    image_ids, anns, image_size = file
    path = tmp_path_factory.mktemp("anns") / "anns.json"
    written = _written(fileio.write_annotations, path, image_ids, anns, image_size)
    doc = {"schema": fileio.ANNOTATIONS_SCHEMA, "images": _image_doc(image_ids, image_size),
           "annotations": [_record(ann) for ann in anns]}
    assert written == _stdlib_bytes(doc)


@_oracle
@given(st.booleans().flatmap(partial(_maps, _regions)))
@example({})
@example({"b": [], "a": [RadioRegion(1.0, 2.0, 3.0, "r")], "c": []})
@example({10: [RadioRegion(1, np.float64(2.0), 3.0, 5)], 2: [], "a": []})
def test_region_writer_bytes_equal_the_stdlib_encoder(tmp_path_factory, by_image):
    path = tmp_path_factory.mktemp("regions") / "regions.json"
    written = _written(fileio.write_regions, path, by_image)
    assert written == _stdlib_bytes(_map_doc(fileio.REGIONS_SCHEMA, by_image))


@_oracle
@given(st.booleans().flatmap(partial(_maps, _regions, keys=lambda odd: _ids)))
@example({"b": [], "a": [], "\x7f": [RadioRegion(1, True, 3.0, "\ud800")]})
def test_region_table_writer_bytes_equal_the_stdlib_encoder(tmp_path_factory, by_image):
    """A ``Regions`` table is written as its records, every number a float."""
    path = tmp_path_factory.mktemp("regions") / "regions.json"
    table = Regions.from_records(by_image)
    written = _written(fileio.write_regions, path, table)
    assert written == _stdlib_bytes(_map_doc(fileio.REGIONS_SCHEMA, table.records()))


@_oracle
@given(st.booleans().flatmap(partial(_maps, _estimates)))
@example({"e": [], "p": [RadioEstimate(90.0, 0.0, 1e-8, -0.0, "p0")]})
@example({3: [RadioEstimate(90, np.float64(0.5), 1e-8, 1e308, 0),
              RadioEstimate(0.0, 0.0, 1e-8, 1e308, 1)]})
def test_estimate_writer_bytes_equal_the_stdlib_encoder(tmp_path_factory, by_image):
    path = tmp_path_factory.mktemp("estimates") / "estimates.json"
    written = _written(fileio.write_estimates, path, by_image)
    assert written == _stdlib_bytes(_map_doc(fileio.ESTIMATES_SCHEMA, by_image))


def test_plain_files_take_the_template_path(tmp_path):
    """Finite floats and strings, a detection cell or none, an image size or
    none: no writer builds a record dict."""
    box = (0.0, 1.0, 2.0, 3.0)
    _written(fileio.write_detections, tmp_path / "d.json", Detections.from_records([
        Detection("a", box, 0.5), Detection("b", box, 0.25, "r", box)]))
    for size in (None, (1280.0, 720.0)):
        _written(fileio.write_annotations, tmp_path / "a.json", ["a", "b"],
                 [Annotation("a", box)], size)
    _written(fileio.write_regions, tmp_path / "r.json",
             {"a": [RadioRegion(1.0, 2.0, 3.0, "r")], "b": []})
    _written(fileio.write_estimates, tmp_path / "e.json",
             {"a": [RadioEstimate(90.0, 90.0, 1e-8, 1.0, "p")]})


# Loose inputs per writer: ints and numpy floats where a float goes, int ids
# and int map keys. A detection table's image ids are all ints or all strings.
_loose_detections = st.lists(st.builds(
    Detection, image_id=st.integers(0, 3), bbox=st.tuples(*[_numbers(_coords, True)] * 2,
                                                           *[_numbers(_extents, True)] * 2),
    score=_numbers(st.floats(0.0, 1.0), True) | st.just(0), region_id=st.none() | _texts(True),
    cell=st.none() | st.tuples(*[_numbers(_coords, True)] * 2, *[_numbers(_extents, True)] * 2)),
    max_size=4)


@st.composite
def loose_writes(draw):
    """(a writer's kind, its arguments, what the file must read back as)."""
    kind = draw(st.sampled_from(["detections", "annotations", "regions", "table", "estimates"]))
    if kind == "detections":
        dets = draw(_loose_detections)
        return kind, (Detections.from_records(dets),), [_read_back(det) for det in dets]
    if kind == "annotations":
        _, anns, size = draw(_annotation_files(True))
        named = draw(st.lists(st.integers(0, 9), unique=True))
        image_ids = list({str(key): key for key in named + [ann.image_id for ann in anns]}.values())
        back = [str(key) for key in image_ids], [_read_back(ann) for ann in anns]
        return kind, (image_ids, anns, size), back
    keys = st.integers(0, 20) if kind == "table" else _texts(True)
    records = _estimates if kind == "estimates" else _regions
    # One record per image: a reader refuses an id that an image repeats.
    by_image = {key: items[:1] for key, items in draw(_maps(records, True, lambda _: keys)).items()}
    back = {str(key): list(map(_read_back, items)) for key, items in by_image.items()}
    return kind, (Regions.from_records(by_image) if kind == "table" else by_image,), back


_WRITE = {"detections": fileio.write_detections, "annotations": fileio.write_annotations,
          "regions": fileio.write_regions, "table": fileio.write_regions,
          "estimates": fileio.write_estimates}


def _read(kind, path):
    if kind == "detections":
        return fileio.read_detections(path).records()
    if kind == "annotations":
        image_ids, annotations = fileio.read_annotations(path)
        return image_ids, annotations.records()
    if kind == "estimates":
        return fileio.read_estimates(path)
    return fileio.read_regions(path).records()


@settings(max_examples=200, deadline=None)
@given(loose_writes())
def test_loose_values_take_the_template_path_and_read_back(tmp_path_factory, write):
    """Ints, numpy floats, int ids and int map keys reach no record path,
    and the file reads back equal to the input, ids and keys as strings."""
    kind, args, back = write
    path = tmp_path_factory.mktemp("loose") / "file.json"
    _written(_WRITE[kind], path, *args)
    assert _read(kind, path) == back


def test_a_plain_region_table_builds_no_record(tmp_path, monkeypatch):
    """A ``Regions`` table, its rows out of image order and an image without
    rows in its id table, is written from its columns with its records' bytes."""
    table = Regions.build(["c", "b", "c"], [1.0, 4.0, -0.0], [2.0, 5.0, 8.0], [3.0, 6.0, 9.0],
                          ["r", "s", "\u00e9"], table=["a"])
    expected = _written(fileio.write_regions, tmp_path / "records.json", table.records())
    monkeypatch.setattr(RadioRegion, "__post_init__", lambda self: pytest.fail("record built"))
    assert _written(fileio.write_regions, tmp_path / "table.json", table) == expected


def test_a_region_table_with_int_ids_is_written_in_string_key_order(tmp_path):
    table = Regions.build([10, 2, 10], [1.0, 4.0, -0.0], [2.0, 5.0, 8.0], [3.0, 6.0, 9.0],
                          ["r", 7, "s"], table=[3])
    written = _written(fileio.write_regions, tmp_path / "regions.json", table)
    assert written == _stdlib_bytes(_map_doc(fileio.REGIONS_SCHEMA, table.records()))
    assert list(json.loads(written)["images"]) == ["10", "2", "3"]


@pytest.mark.parametrize("center, edge, identifier", [
    (1.0, -3.0, "r"), (1.0, math.inf, "r"), (1.0, 3.0, None), (math.nan, 3.0, "r"),
    (1.0, math.nan, "r"), (1.0, 3.0, True),
], ids=["negative-edge", "infinite-edge", "no-id", "nan-center", "nan-edge", "bool-id"])
def test_a_region_table_off_the_template_is_refused(tmp_path, center, edge, identifier):
    """A row that a ``RadioRegion`` refuses, or an id that no text reader
    takes, is refused before the file or its folder is made."""
    table = Regions.build(["a", "a"], [1.0, center], [2.0, 2.0], [3.0, edge], ["q", identifier])
    path = tmp_path / "out" / "regions.json"
    with pytest.raises(InvalidInputError):
        fileio.write_regions(path, table)
    assert not path.parent.exists()


@pytest.mark.parametrize("column", ["center_x", "center_y", "edge"])
def test_a_nan_region_is_refused_by_its_record(tmp_path, column):
    """No region field is optional, so ``records`` hands a NaN to
    ``RadioRegion``, which refuses it with ``InvalidInputError``."""
    values = {"center_x": [1.0], "center_y": [2.0], "edge": [3.0], column: [math.nan]}
    table = Regions.build(["a"], values["center_x"], values["center_y"], values["edge"], ["r"])
    with pytest.raises(InvalidInputError, match="region"):
        table.records()
    path = tmp_path / "regions.json"
    with pytest.raises(InvalidInputError, match=re.escape(str(path))):
        fileio.write_regions(path, table)
    assert not path.exists()


_PLAIN = RadioRegion(1.0, 2.0, 3.0, "r")


@pytest.mark.parametrize("by_image, error", [
    ({"a": [_PLAIN], "b": []}, None),
    ({"a": [RadioRegion(1.0, 2.0, 3.0, "\u00e9\x00")]}, None),
    ({"a": [_PLAIN, RadioRegion(np.float64(1.0), 2.0, 3.0, "s")]}, None),
    ({"a": [RadioRegion(1, 2.0, 3.0, "r")]}, None),
    ({"a": [RadioRegion(1.0, 2.0, True, "r")]}, InvalidInputError),
    ({"a": [RadioRegion(1.0, 2.0, 3.0, 5)]}, None),
    ({5: [_PLAIN]}, None),
    ({"a": [RadioEstimate(90.0, 90.0, 1e-8, 1.0, "p")]}, TypeError),
], ids=["plain", "escaped-id", "numpy-float", "int", "bool", "int-id", "int-key", "other-type"])
def test_a_list_takes_the_template_path_whatever_its_values(tmp_path, by_image, error):
    """Every list is written from the row template and reads back as its
    values do, or is refused before the file opens."""
    path = tmp_path / "regions.json"
    if error is not None:
        with pytest.raises(error):
            _written(fileio.write_regions, path, by_image)
        assert not path.exists()
    else:
        _written(fileio.write_regions, path, by_image)
        assert fileio.read_regions(path).records() == {
            str(key): list(map(_read_back, items)) for key, items in by_image.items()}


@pytest.mark.parametrize("write, by_image", [
    (fileio.write_regions, {5: [_PLAIN], "5": [RadioRegion(4.0, 5.0, 6.0, "s")]}),
    (fileio.write_regions, Regions((5, "5"), np.array([0, 1]), np.array([1.0, 4.0]),
                                   np.array([2.0, 5.0]), np.array([3.0, 6.0]),
                                   np.array(["r", "s"], dtype=object))),
    (fileio.write_estimates, {"a": [], 5: [], "5": []}),
], ids=["regions", "region-table", "estimates"])
def test_keys_that_spell_alike_are_refused(tmp_path, write, by_image):
    """Two map keys written as one string would leave one image of the two
    in the file, so the map is refused before the file or its folder is made."""
    path = tmp_path / "out" / "file.json"
    with pytest.raises(InvalidInputError, match="keys 5 and '5' are both written as '5'"):
        write(path, by_image)
    assert not path.parent.exists()


_RECT = (0.0, 1.0, 2.0, 3.0)


@pytest.mark.parametrize("write, field", [
    (lambda path: fileio.write_detections(path, Detections.build(
        [None], [_RECT], [0.5], [None], [None])), "image_id"),
    (lambda path: fileio.write_detections(path, Detections.build(
        ["a"], [_RECT], [0.5], [True], [None])), "region_id"),
    (lambda path: fileio.write_annotations(path, ["a"], [], (math.nan, 1.0)), "width"),
    (lambda path: fileio.write_annotations(path, ["a"], [], (1.0, math.inf)), "height"),
    (lambda path: fileio.write_annotations(path, ["a"], [], (True, 1.0)), "width"),
    (lambda path: fileio.write_annotations(path, ["a"], [], (0.0, 720.0)), "width"),
    (lambda path: fileio.write_annotations(path, ["a", "b"], [], (1280.0, -1.0)), "height"),
    (lambda path: fileio.write_annotations(path, [None], [], None), "id"),
    (lambda path: fileio.write_annotations(
        path, ["a"], [Annotation("a", (True, 0.0, 1.0, 1.0))]), "bbox"),
    (lambda path: fileio.write_regions(path, {"a": [RadioRegion(1.0, 2.0, 3.0, None)]}), "id"),
    (lambda path: fileio.write_estimates(
        path, {"a": [RadioEstimate(True, 90.0, 1e-8, 1.0, "p")]}), "aoa_h"),
    (lambda path: fileio.write_estimates(
        path, {"a": [RadioEstimate(90.0, 90.0, 1e-8, 1.0, None)]}), "id"),
    (lambda path: fileio.write_report(
        path, {"metrics": {"mr_fppi_curve": [[0.0, 1.0], [0.5, math.nan]]}}), "mr_fppi_curve"),
    (lambda path: fileio.write_report(
        path, {"metrics": {"mr_fppi_curve": [[math.inf, 0.0]]}}), "mr_fppi_curve"),
], ids=["detection-none-id", "detection-bool-region-id", "nan-width", "inf-height", "bool-width",
        "zero-width", "negative-height", "none-image-id", "bool-box", "none-region-id", "bool-angle", "none-estimate-id",
        "nan-curve", "inf-curve"])
def test_a_refused_value_names_its_field_and_makes_no_file(tmp_path, write, field):
    path = tmp_path / "out" / "file.json"
    with pytest.raises(InvalidInputError, match=f"^{re.escape(str(path))}: .*{field}: expected"):
        write(path)
    assert not path.parent.exists()


# -- Annotation and region files: the column readers against the per-record path

def _size(value) -> float:
    number = _float(value)
    if number > 0.0:
        return number
    raise SchemaError(f"expected a finite number > 0, got {value!r}")


def _boolean(value) -> bool:
    if type(value) is bool:
        return value
    raise SchemaError(f"expected true or false, got {value!r}")


def _read_annotation_records(path):
    """The per-record annotation reader: image entries one by one (an id and
    optional sizes > 0), then one ``_from_record`` per record whose
    ``ignore`` flag, a JSON boolean or null, is not true."""
    data = fileio.load_json(path, fileio.ANNOTATIONS_SCHEMA)
    image_ids = []
    for image in _expect(data.get("images", []), list, f"{path}: images"):
        _expect(image, dict, f"{path}: images")
        image_ids.append(_field(image, "id", _text, MISSING, f"{path}: images"))
        for key in ("width", "height"):
            _field(image, key, _size, None, f"{path}: images")
    if repeated := [key for key in image_ids if image_ids.count(key) > 1]:
        raise SchemaError(f"{path}: images lists id {repeated[0]!r} more than once")
    annotations = []
    for record in _expect(data.get("annotations", []), list, f"{path}: annotations"):
        _expect(record, dict, f"{path}: annotation")
        if not _field(record, "ignore", _boolean, False, f"{path}: annotation"):
            annotations.append(_from_record(record, Annotation, str(path)))
    named = sorted({ann.image_id for ann in annotations})
    if not image_ids:
        return named, annotations
    if stray := set(named) - set(image_ids):
        raise SchemaError(f"{path}: annotations on images not in images: {sorted(stray)[:3]}")
    return image_ids, annotations


def _read_region_records(path):
    """The per-record region reader: image by image, one ``_from_record`` per
    record, and the first id an image repeats named."""
    data = fileio.load_json(path, fileio.REGIONS_SCHEMA)
    images = _expect(_require(data, "images", str(path)), dict, f"{path}: images")
    by_image = {}
    for image_id, records in images.items():
        context = f"{path}: image {image_id!r}"
        items = [_from_record(record, RadioRegion, context)
                 for record in _expect(records, list, context)]
        ids = [item.identifier for item in items]
        if repeated := [key for key in ids if ids.count(key) > 1]:
            raise SchemaError(f"{context} repeats id {repeated[0]!r}")
        by_image[image_id] = items
    return by_image


def _read_annotation_columns(path):
    image_ids, annotations = fileio.read_annotations(path)
    return image_ids, annotations.records()


def _read_region_columns(path):
    return fileio.read_regions(path).records()


def _alike(tmp_path, document, columns, records):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    assert _outcome(columns, path) == _outcome(records, path)


_ANN = {"image_id": "a", "bbox": [0.0, 0.0, 4.0, 8.0]}
# A region whose tallest proposal anchor spans the box domain exactly, and its
# next larger edge, whose anchor leaves it.
_REACH_EDGE = 2 * MAX_COORD / (1.25 * math.sqrt(3.0))
_REG = {"id": "r0", "center_x": 1.0, "center_y": 2.0, "edge": 3.0}


@pytest.mark.parametrize("record", [
    {**_ANN, "bbox": [0.0, True, 4.0, 8.0]},
    {**_ANN, "bbox": ["1.5", 0.0, 4.0, 8.0]},
    {**_ANN, "bbox": [0, 0, 4, 8]},
    {**_ANN, "bbox": [0.0, 0.0, 4.0]},
    {**_ANN, "bbox": [0.0, 0.0, 4.0, 8.0, 1.0]},
    {**_ANN, "bbox": [0.0, math.nan, 4.0, 8.0]},
    {**_ANN, "bbox": [0.0, 0.0, math.inf, 8.0]},
    {**_ANN, "bbox": [0.0, 0.0, 0.0, 8.0]},
    {**_ANN, "bbox": [MAX_COORD, 0.0, 1.0, 8.0]},
    {**_ANN, "height": math.nan},
    {**_ANN, "height": -math.inf},
    {**_ANN, "height": 0.0},
    {**_ANN, "height": "12"},
    {**_ANN, "height": 12},
    {**_ANN, "occlusion": 1.0000000000000002},
    {**_ANN, "occlusion": -5e-324},
    {**_ANN, "occlusion": True},
    {**_ANN, "category": None, "height": None, "occlusion": None},
    {**_ANN, "category": 7},
    {**_ANN, "category": "car"},
    {**_ANN, "image_id": 3},
    {**_ANN, "image_id": None},
    {"bbox": [0.0, 0.0, 4.0, 8.0]},
    {**_ANN, "ignore": True, "bbox": "junk"},
    {**_ANN, "ignore": False},
    {**_ANN, "ignore": None},
    {**_ANN, "ignore": "false"},
    {**_ANN, "ignore": 1},
    {**_ANN, "ignore": [0]},
    5,
], ids=["bool-in-bbox", "numeric-string-bbox", "integer-bbox", "3-element-bbox",
        "5-element-bbox", "nan-bbox", "infinite-bbox", "zero-width", "corner-beyond-max-coord",
        "nan-height", "infinite-height", "zero-height", "numeric-string-height",
        "integer-height", "occlusion-above-1", "occlusion-below-0", "bool-occlusion", "nulls", "integer-category",
        "other-category", "integer-image-id", "null-image-id", "missing-image-id",
        "ignored-junk", "ignore-false", "ignore-null", "ignore-string", "ignore-integer",
        "ignore-list", "not-an-object"])
@pytest.mark.parametrize("first", [True, False], ids=["first", "second"])
def test_annotation_column_reader_matches_the_per_record_reader(tmp_path, record, first):
    records = [record, _ANN] if first else [_ANN, record]
    _alike(tmp_path, {"schema": fileio.ANNOTATIONS_SCHEMA, "images": [{"id": "a"}],
                      "annotations": records},
           _read_annotation_columns, _read_annotation_records)


@pytest.mark.parametrize("image", [
    {"id": "a", "width": 640.0, "height": 480.0}, {"id": "a", "width": 640},
    {"id": "a", "width": None}, {"id": "a", "width": "abc"}, {"id": "a", "height": "480"},
    {"id": "a", "width": 0.0}, {"id": "a", "height": -1.0}, {"id": "a", "width": math.nan},
    {"id": "a", "height": math.inf}, {"id": "a", "width": True}, {"id": 3}, {"id": None},
    {"width": 1.0}, "a",
], ids=["sizes", "integer-width", "null-width", "text-width", "numeric-string-height",
        "zero-width", "negative-height", "nan-width", "infinite-height", "bool-width",
        "integer-id", "null-id", "missing-id", "not-an-object"])
def test_annotation_image_entries_read_alike(tmp_path, image):
    _alike(tmp_path, {"schema": fileio.ANNOTATIONS_SCHEMA, "images": [image, {"id": "b"}],
                      "annotations": [_ANN]},
           _read_annotation_columns, _read_annotation_records)


@pytest.mark.parametrize("record", [
    {**_REG, "center_x": True},
    {**_REG, "center_x": "1.5"},
    {**_REG, "edge": 3},
    {**_REG, "center_y": math.nan},
    {**_REG, "edge": math.inf},
    {**_REG, "edge": 0.0},
    {**_REG, "edge": -3.0},
    {**_REG, "center_x": None},
    {**_REG, "id": None},
    {key: value for key, value in _REG.items() if key != "id"},
    {**_REG, "id": 4},
    {**_REG, "id": "r9"},
    {**_REG, "center_x": 0.0, "center_y": 0.0, "edge": _REACH_EDGE},
    {**_REG, "center_x": 0.0, "center_y": 0.0, "edge": math.nextafter(_REACH_EDGE, math.inf)},
    {**_REG, "center_x": MAX_COORD, "edge": 1.0},
    {**_REG, "center_x": -MAX_COORD + 1e135, "edge": 1e134},
    [1.0],
], ids=["bool-center", "numeric-string-center", "integer-edge", "nan-center", "infinite-edge",
        "zero-edge", "negative-edge", "null-center", "null-id", "missing-id", "integer-id",
        "repeated-id", "anchor-at-max-coord", "anchor-past-max-coord", "square-past-max-coord",
        "square-near-min-coord", "not-an-object"])
@pytest.mark.parametrize("first", [True, False], ids=["first", "second"])
def test_region_column_reader_matches_the_per_record_reader(tmp_path, record, first):
    other = {**_REG, "id": "r9"}
    records = [record, other] if first else [other, record]
    _alike(tmp_path, {"schema": fileio.REGIONS_SCHEMA,
                      "images": {"b": [{**_REG, "id": "r1"}], "a": records, "c": []}},
           _read_region_columns, _read_region_records)


_flags = st.none() | st.booleans() | _anything
_sizes = st.floats(1.0, 2000.0) | st.none() | _anything


@st.composite
def annotation_files(draw):
    """Image entries and annotation records, mostly well formed."""
    ids = draw(st.lists(st.sampled_from(["a", "b", "c"]) | _anything, max_size=3))
    images = [{"id": key, **({"width": draw(_sizes)} if draw(st.booleans()) else {}),
               **({"height": draw(_sizes)} if draw(st.booleans()) else {})} for key in ids]
    records = draw(st.lists(objects(Annotation) | _anything, max_size=4))
    for record in records:
        if isinstance(record, dict) and draw(st.booleans()):
            record["image_id"] = draw(st.sampled_from(["a", "b", "c"]))
        if isinstance(record, dict) and draw(st.integers(0, 3)) == 0:
            record["ignore"] = draw(_flags)
    return {"schema": fileio.ANNOTATIONS_SCHEMA, "images": images, "annotations": records}


@settings(max_examples=300, deadline=None)
@given(annotation_files())
def test_annotation_files_read_alike(tmp_path_factory, document):
    _alike(tmp_path_factory.mktemp("ann"), document,
           _read_annotation_columns, _read_annotation_records)


_region_values = (st.floats(-1e3, 1e3) | st.floats(0.5, 60.0)
                  | st.sampled_from([_REACH_EDGE, math.nextafter(_REACH_EDGE, math.inf),
                                     MAX_COORD, -MAX_COORD, 0.0]))


@st.composite
def region_records(draw):
    """A region record, each key absent, plausible or anything."""
    record = draw(objects(RadioRegion))
    for key in ("center_x", "center_y", "edge"):
        if draw(st.booleans()):
            record[key] = draw(_region_values)
    if draw(st.booleans()):
        record["id"] = draw(st.sampled_from(["r0", "r1", "r2"]))
    return record


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(["a", "b", "c"]),
                       st.lists(region_records() | _anything, max_size=4) | _anything,
                       max_size=3))
def test_region_files_read_alike(tmp_path_factory, images):
    _alike(tmp_path_factory.mktemp("reg"), {"schema": fileio.REGIONS_SCHEMA, "images": images},
           _read_region_columns, _read_region_records)
