"""Readers and writers for the JSON/CSV interchange files.

All structured files are JSON with a ``schema`` tag; exact field layouts
are documented in docs/SCHEMAS.md. Records are read and written by one
codec whose keys and value readers derive from the record dataclasses.
A text field (ids, category, orientation) takes a JSON string or an
integer, which is normalized to its decimal string so map keys round-trip.

Every JSON file is spelled as ``json.dumps(payload, indent=1,
sort_keys=True)`` plus a newline: one space per level, sorted keys, ASCII
escapes and floats as ``repr`` spells them. Sorted keys and seeded
generation make whole runs byte-reproducible. ``dump_json`` encodes the
whole document before it opens the file, so a document that cannot be
encoded leaves the previous file as it was. Detection files are read into
and written from ``world.Detections`` columns: the reader checks the record
rules on whole columns, and the writer streams rows once every id is
escaped. Record readers take a
finite float or a string as it is and send every other value through its
field's reader, which gives the same record or error. A record
constructor's error keeps its type and names the file.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import MISSING, fields
from functools import partial
from json.encoder import encode_basestring_ascii as _escape
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .errors import InvalidInputError, SchemaError
from .geometry import Rect
from .imaging import RadioRegion
from .radio import ArrayGeometry, CsiFrame, RadioEstimate
from .sim_regions import Annotation
from .world import Detection, Detections

CSI_SCHEMA = "csi-frame/1"
ANNOTATIONS_SCHEMA = "annotations/1"
REGIONS_SCHEMA = "regions/1"
DETECTIONS_SCHEMA = "detections/1"
ESTIMATES_SCHEMA = "estimates/1"


def load_json(path: str | Path, expected_schema: str | None = None) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # malformed JSON or not UTF-8
            raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    _expect(data, dict, f"{path}: top level")
    if expected_schema is not None and data.get("schema") != expected_schema:
        raise SchemaError(
            f"{path}: expected schema {expected_schema!r}, got {data.get('schema')!r}"
        )
    return data


def dump_json(path: str | Path, payload: dict) -> None:
    text = _encode(payload, "\n") + "\n"
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


_float_repr = float.__repr__


def _encode(value, newline: str) -> str:
    """``value`` as ``json.dumps(value, indent=1, sort_keys=True)`` spells it,
    where ``newline`` starts each line at the current depth. Anything JSON
    cannot hold, a non-``str`` key included, raises ``TypeError``.

    Containers are tested first because they are the most frequent calls;
    no value is both a container and a scalar, so the order changes no
    output. The brackets go onto the end items, so a large container is
    copied once, by its ``join``."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + " "
        items = [_escape(k) + ": " + (_float_repr(v) if type(v) is float and v - v == 0
                                      else _escape(v) if type(v) is str
                                      else _encode(v, inner))
                 for k, v in sorted(value.items())]
        items[0] = "{" + inner + items[0]
        items[-1] = items[-1] + newline + "}"
        return ("," + inner).join(items)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + " "
        items = [_float_repr(v) if type(v) is float and v - v == 0 else _encode(v, inner)
                 for v in value]
        items[0] = "[" + inner + items[0]
        items[-1] = items[-1] + newline + "]"
        return ("," + inner).join(items)
    if isinstance(value, str):
        return _escape(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return _float_repr(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _expect(value, kind: type, context: str):
    if not isinstance(value, kind):
        kind_name = "an object" if kind is dict else f"a {kind.__name__}"
        raise SchemaError(f"{context}: expected {kind_name}, got {type(value).__name__}")
    return value


def _require(record: dict, key: str, context: str):
    if key not in _expect(record, dict, context):
        raise SchemaError(f"{context}: missing required field {key!r}")
    return record[key]


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
    """A JSON string as it is, or an integer as its decimal string."""
    if isinstance(value, str) or type(value) is int:  # a boolean is not an int here
        return str(value)
    raise SchemaError(f"expected a string or an integer, got {value!r}")


def _as_bbox(value) -> Rect:
    if not isinstance(value, (list, tuple)) or len(value) != 4:
        raise SchemaError("expected a 4-element [x, y, w, h] list")
    x, y, w, h = value
    if (type(x) is float and type(y) is float and type(w) is float and type(h) is float
            and x - x + y - y + w - w + h - h == 0):
        return x, y, w, h
    return tuple(map(_float, value))


# -- Record codec --------------------------------------------------------
# Per record type, one (field name, file key, value reader, default) entry
# per field. A MISSING default makes the key required; null reads as absent,
# so an ``X | None`` field uses the reader of ``X``.

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


def _to_record(obj) -> dict:
    """The fields of ``obj`` under their file keys, leaving out ``None``."""
    return {key: value for name, key, _, _ in _SPECS[type(obj)]
            if (value := getattr(obj, name)) is not None}


def _read_fields(record, spec: tuple, context: str) -> list:
    """The values of ``spec``'s entries in one JSON object, in spec order. A
    finite float for a float field and a string for a text field are taken
    as they are; null or absent reads as the default, and is an error for a
    required field."""
    _expect(record, dict, context)
    values = []
    for _, key, read, default in spec:
        value = record.get(key)
        if type(value) is float and value - value == 0 and read is _float:
            values.append(value)
        elif type(value) is str and read is _text:
            values.append(value)
        elif value is None:
            if default is MISSING:
                raise SchemaError(f"{context}: missing required field {key!r}")
            values.append(default)
        else:
            try:
                values.append(read(value))
            except SchemaError as exc:
                raise SchemaError(f"{context}: {key}: {exc}") from None
    return values


def _from_record(record, cls: type, context: str):
    """One ``cls`` record from its JSON object. A value the record refuses
    raises the constructor's error type with ``context`` in front."""
    values = _read_fields(record, _SPECS[cls], context)
    try:
        return cls(*values)
    except InvalidInputError as exc:
        raise type(exc)(f"{context}: {exc}") from None


# -- CSI frames ---------------------------------------------------------

def write_csi_frame(path: str | Path, frame: CsiFrame, image_id: str | None = None) -> None:
    flat = frame.samples.reshape(-1)
    dump_json(path, {
        "schema": CSI_SCHEMA,
        "geometry": _to_record(frame.geometry),
        "timestamp": frame.timestamp,
        "samples": np.column_stack([flat.real, flat.imag]).tolist(),
        **({} if image_id is None else {"image_id": str(image_id)}),
    })


def read_csi_frame(path: str | Path) -> tuple[CsiFrame, str | None]:
    """Load one CSI frame; returns the frame and its optional image id."""
    data = load_json(path, CSI_SCHEMA)
    geometry = _from_record(_require(data, "geometry", str(path)),
                            ArrayGeometry, f"{path}: geometry")
    samples, timestamp, image_id = _read_fields(data, (
        ("samples", "samples", partial(_as_samples, geometry), MISSING),
        ("timestamp", "timestamp", _float, 0.0),
        ("image_id", "image_id", _text, None)), str(path))
    return CsiFrame(samples, geometry, timestamp), image_id


def _as_samples(geometry: ArrayGeometry, value) -> np.ndarray:
    """Row-major [real, imag] pairs as an antennas x subcarriers complex array."""
    count = geometry.num_antennas * geometry.num_subcarriers
    try:
        pairs = np.array(value)
        valid = (np.issubdtype(pairs.dtype, np.number) and pairs.shape == (count, 2)
                 and np.isfinite(pairs).all())
    except ValueError:  # ragged nesting
        valid = False
    if not valid:
        raise SchemaError(f"expected {count} [real, imag] pairs of finite numbers")
    return pairs.astype(np.float64).view(np.complex128).reshape(geometry.num_antennas, -1)


# -- Annotations --------------------------------------------------------

_IMAGE = (("id", "id", _text, MISSING),)


def write_annotations(path: str | Path, image_ids: list[str],
                      annotations: list[Annotation],
                      image_size: tuple[float, float] | None = None) -> None:
    size = {} if image_size is None else dict(zip(("width", "height"), image_size))
    images = [{"id": str(image_id), **size} for image_id in image_ids]
    dump_json(path, {"schema": ANNOTATIONS_SCHEMA, "images": images,
                     "annotations": [_to_record(ann) for ann in annotations]})


def read_annotations(path: str | Path) -> tuple[list[str], list[Annotation]]:
    """Load a COCO-style annotation file: (image ids, annotations)."""
    data = load_json(path, ANNOTATIONS_SCHEMA)
    images = _expect(data.get("images", []), list, f"{path}: images")
    image_ids = [_read_fields(img, _IMAGE, f"{path}: images")[0] for img in images]
    if len(set(image_ids)) != len(image_ids):
        repeated = next(i for i, n in Counter(image_ids).items() if n > 1)
        raise SchemaError(f"{path}: images lists id {repeated!r} more than once")
    records = _expect(data.get("annotations", []), list, f"{path}: annotations")
    annotations = [
        _from_record(record, Annotation, str(path)) for record in records
        if not _expect(record, dict, f"{path}: annotation").get("ignore", False)
    ]
    if not image_ids:
        return sorted({ann.image_id for ann in annotations}), annotations
    if stray := {ann.image_id for ann in annotations} - set(image_ids):
        raise SchemaError(f"{path}: annotations on images not in images: {sorted(stray)[:3]}")
    return image_ids, annotations


# -- Detections ---------------------------------------------------------
# A row is spelled as ``dump_json`` spells its record (``%r`` is ``float.__repr__``).

_BOX = "[\n    %r,\n    %r,\n    %r,\n    %r\n   ]"
_ROW = '{\n   "bbox": ' + _BOX + '%s,\n   "image_id": %s%s,\n   "score": %r\n  }'


def write_detections(path: str | Path, detections: Detections | list[Detection]) -> None:
    """Rows stream into the file; every string is escaped before it opens."""
    if not isinstance(detections, Detections):
        detections = Detections.from_records(detections)
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
        fh.write(("\n ]" if regions else "]") + f',\n "schema": "{DETECTIONS_SCHEMA}"\n}}\n')


def read_detections(path: str | Path) -> Detections:
    """Records read field by field into columns, checked as whole columns; a
    list with a bad record is read again record by record, which names it."""
    data = load_json(path, DETECTIONS_SCHEMA)
    records = _expect(_require(data, "detections", str(path)), list, f"{path}: detections")
    try:
        columns = Detections.build([_read_fields(record, _SPECS[Detection], str(path))
                                    for record in records])
        if columns.valid():
            return columns
    except SchemaError:
        pass
    return Detections.from_records(_from_record(record, Detection, str(path)) for record in records)


# -- Per-image maps: regions and estimates ------------------------------

def _write_by_image(path: str | Path, schema: str, by_image: dict[str, list]) -> None:
    images = {str(image_id): [_to_record(item) for item in items]
              for image_id, items in by_image.items()}
    dump_json(path, {"schema": schema, "images": images})


def _read_by_image(path: str | Path, schema: str, record_type: type) -> dict[str, list]:
    """A per-image map of records whose ``identifier`` is unique per image."""
    data = load_json(path, schema)
    images = _expect(_require(data, "images", str(path)), dict, f"{path}: images")
    by_image: dict[str, list] = {}
    for image_id, records in images.items():
        context = f"{path}: image {image_id!r}"
        items = [_from_record(record, record_type, context)
                 for record in _expect(records, list, context)]
        if len({item.identifier for item in items}) != len(items):
            raise SchemaError(f"{context} repeats an id")
        by_image[str(image_id)] = items
    return by_image


def write_regions(path: str | Path, regions_by_image: dict[str, list[RadioRegion]]) -> None:
    _write_by_image(path, REGIONS_SCHEMA, regions_by_image)


def read_regions(path: str | Path) -> dict[str, list[RadioRegion]]:
    return _read_by_image(path, REGIONS_SCHEMA, RadioRegion)


def write_estimates(path: str | Path,
                    estimates_by_image: dict[str, list[RadioEstimate]]) -> None:
    _write_by_image(path, ESTIMATES_SCHEMA, estimates_by_image)


def read_estimates(path: str | Path) -> dict[str, list[RadioEstimate]]:
    return _read_by_image(path, ESTIMATES_SCHEMA, RadioEstimate)


# -- Curves and reports --------------------------------------------------

def write_curve_csv(path: str | Path, curve: list[tuple[float, float]]) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("fppi", "miss_rate"))
        writer.writerows([list(point) for point in curve])


def read_curve_csv(path: str | Path) -> list[tuple[float, float]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return [(_float(a), _float(b)) for a, b in rows[1:]]


def write_report(path: str | Path, report_dict: dict) -> None:
    dump_json(path, report_dict)


def read_report(path: str | Path) -> dict:
    return load_json(path)
