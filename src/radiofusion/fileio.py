"""Readers and writers for the JSON/CSV interchange files.

All structured files are JSON with a ``schema`` tag; field layouts are in
docs/SCHEMAS.md. One codec, whose keys and value readers derive from the
record dataclasses, reads and writes every record. A text field takes a
JSON string or an integer, read as its decimal string so map keys
round-trip.

Detection, annotation and region files are read into ``world`` columns by
one whole-column reader (``_columns``): it takes each key's values when
every value has the exact JSON type, and the record rules are checked on
whole columns. Any other list is read again record by record, which gives
the same records or the error that names the record; a record
constructor's error keeps its type and names the file.

Every JSON file is spelled as ``json.dumps(payload, indent=1,
sort_keys=True)`` plus a newline, and that encoder itself spells every
value but one kind: a list of records is written from one row template per
record type, derived from ``_SPECS``, by one format call per chunk of
``CHUNK_ROWS`` rows, each chunk written as soon as it is made; so are the
rows of CSI samples and of a report's miss-rate curve. These templates are
the only JSON the package spells itself. A value fills a template only
where ``json`` would spell it the same way, and every value is checked and
every string escaped before the file opens, so nothing can fail once it is
open. Any other list goes to ``json`` as it is, a list of records as one
dict per record, and ``dump_json`` encodes everything but the row runs
before it opens the file.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import MISSING, fields
from functools import cache, partial
from itertools import chain, compress
from json.encoder import encode_basestring_ascii as _escape
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import NamedTuple, get_type_hints

import numpy as np

from .errors import InvalidInputError, SchemaError
from .geometry import Rect
from .radio import ArrayGeometry, CsiFrame, RadioEstimate
from .world import Annotation, Annotations, Detection, Detections, RadioRegion, Regions

CSI_SCHEMA = "csi-frame/1"
ANNOTATIONS_SCHEMA = "annotations/1"
REGIONS_SCHEMA = "regions/1"
DETECTIONS_SCHEMA = "detections/1"
ESTIMATES_SCHEMA = "estimates/1"


def load_json(path: str | Path, expected_schema: str | None = None) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:  # malformed, too deeply nested or not UTF-8
            raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    _expect(data, dict, f"{path}: top level")
    if expected_schema is not None and data.get("schema") != expected_schema:
        raise SchemaError(
            f"{path}: expected schema {expected_schema!r}, got {data.get('schema')!r}"
        )
    return data


_ENCODER = json.JSONEncoder(indent=1, sort_keys=True)


def dump_json(path: str | Path, payload: dict) -> None:
    """``json.dumps(payload, indent=1, sort_keys=True)`` plus a newline, where
    a ``_Rows`` value at any depth of dicts is written chunk by chunk; every
    other value, and every key, is encoded before the file opens."""
    pieces = _pieces(payload, "\n")
    with _create(path) as fh:
        for piece in pieces:
            if isinstance(piece, _Rows):
                piece.write(fh.write)
            else:
                fh.write(piece)
        fh.write("\n")


def _pieces(value: dict, newline: str) -> list:
    """``value`` as ``json`` spells it on the line that ``newline`` starts:
    strings, and each ``_Rows`` run found at any depth of dicts. One encoder
    call spells ``value`` with ``null`` for each item that holds a run; the
    run's pieces then replace that ``null``, found by its key on a line one
    indent deeper than ``newline``: deeper lines start with a space, and a
    string holds no line break. A key that is not a ``str`` raises
    ``TypeError``, where ``json`` would spell it as a string."""
    inner = newline + " "
    runs = {key: [item] if isinstance(item, _Rows) else _pieces(item, inner)
            for key, item in value.items() if _streams(item)}
    plain = {**value, **dict.fromkeys(runs)}
    pieces = [_ENCODER.encode(plain).replace("\n", newline)]
    _str_keys(plain)
    for key in sorted(runs):
        prefix = inner + _escape(key) + ": "
        head, tail = pieces.pop().split(prefix + "null", 1)
        pieces += [head + prefix, *runs[key], tail]
    return pieces


def _streams(value) -> bool:
    """Whether ``value`` is a ``_Rows`` or a dict that holds one at any depth of dicts."""
    return isinstance(value, _Rows) or (isinstance(value, dict)
                                        and any(map(_streams, value.values())))


def _str_keys(value) -> None:
    """Raise ``TypeError`` if a dict in ``value`` has a key that is not a ``str``."""
    if isinstance(value, dict):
        if stray := [key for key in value if not isinstance(key, str)]:
            raise TypeError(f"keys must be str, got {stray[0]!r}")
        value = value.values()
    elif not isinstance(value, (list, tuple)):
        return
    for item in value:
        if isinstance(item, (dict, list, tuple)):
            _str_keys(item)


def _create(path: str | Path, newline: str | None = None):
    """``path`` opened to be written as UTF-8 text, its folder made first when
    it is missing: the one place the package opens a file for writing."""
    folder = Path(path).parent
    if not folder.is_dir():
        folder.mkdir(parents=True, exist_ok=True)
    return open(path, "w", encoding="utf-8", newline=newline)


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


def _positive(value) -> float:
    number = _float(value)
    if number > 0.0:
        return number
    raise SchemaError(f"expected a finite number > 0, got {value!r}")


def _flag(value) -> bool:
    if type(value) is bool:
        return value
    raise SchemaError(f"expected true or false, got {value!r}")


def _as_bbox(value) -> Rect:
    if not isinstance(value, (list, tuple)) or len(value) != 4:
        raise SchemaError("expected a 4-element [x, y, w, h] list")
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
    """The values of ``spec``'s entries in one JSON object, in spec order;
    null or absent reads as the default, and is an error for a required field."""
    _expect(record, dict, context)
    values = []
    for _, key, read, default in spec:
        value = record.get(key)
        if value is None:
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


# The JSON type of the values each reader takes as they are on the column path.
_EXACT = {_float: float, _positive: float, _text: str, _as_bbox: list, _flag: bool}


def _columns(records: list, spec: tuple) -> list[list] | None:
    """Per entry of ``spec``, its values in ``records`` as one list, when every
    record is a JSON object and every value has the exact JSON type its
    reader takes as it is: a finite float (> 0 for ``_positive``), a string,
    four finite floats in a list or a boolean; null or absent only where the
    entry has a default, which stands in for it. Else None: the caller reads
    record by record, which gives the same values or the error naming it."""
    if set(map(type, records)) - {dict}:
        return None
    columns = []
    for _, key, read, default in spec:
        try:
            column = list(map(itemgetter(key), records))
        except KeyError:
            column = [record.get(key) for record in records]
        kinds = set(map(type, column)) - ({type(None)} if default is not MISSING else set())
        if not kinds <= {_EXACT.get(read)}:
            return None
        values = [value for value in column if value is not None] if None in column else column
        if read is _as_bbox:
            if set(map(len, values)) - {4}:
                return None
            values = list(chain.from_iterable(values))
            if set(map(type, values)) - {float}:
                return None
        # NaN and the infinities make the sum non-finite, and so may an overflow,
        # which only sends the list to the record reader.
        if (float in kinds or read is _as_bbox) and not math.isfinite(sum(values)):
            return None
        if read is _positive and min(values, default=1.0) <= 0.0:
            return None
        if default is not MISSING and default is not None and None in column:
            column = [default if value is None else value for value in column]
        columns.append(column)
    return columns


# -- Row templates -------------------------------------------------------
# A record is a ``%r`` per float, a ``%s`` per escaped string, four ``%r``
# per box, and one ``%s`` per optional field that holds its whole item or
# nothing, under its key in sorted order, at the indent of its line.

CHUNK_ROWS = 256  # rows per format call; each chunk is written before the next is made
_KINDS = {_float: float, _positive: float, _text: str, _as_bbox: 4}  # an int n: n floats in a list


def _value(kind, newline: str) -> str:
    """The template of one value of ``kind`` on the line that ``newline`` starts."""
    if kind is float:
        return "%r"
    if kind is str:
        return "%s"
    inner = newline + " "
    return "[" + inner + ("," + inner).join(["%r"] * kind) + newline + "]"


@cache
def _row_format(spec: tuple, newline: str) -> tuple[str, tuple]:
    """The template of one record of ``spec`` whose brace starts ``newline``
    and, per entry in key order, its (field name, kind, item template of an
    optional field, else None). An optional item ends in its comma before
    the first required one and starts with it after."""
    inner = newline + " "
    entries = sorted((key, name, _KINDS[read], default is None)
                     for name, key, read, default in spec)
    first = [optional for *_, optional in entries].index(False)
    template, layout = "{", []
    for i, (key, name, kind, optional) in enumerate(entries):
        item = _escape(key) + ": " + _value(kind, inner)
        if optional:
            template += "%s"
            layout.append((name, kind, inner + item + "," if i < first else "," + inner + item))
        else:
            template += ("," if i > first else "") + inner + item
            layout.append((name, kind, None))
    return template + newline + "}", tuple(layout)


def _spellable(kind, column) -> list | None:
    """The slot lists of ``_value(kind)`` for ``column``, when ``json``
    spells each value as its slot does: a ``str`` (escaped) or a finite
    ``float``; a box column comes as one sequence per coordinate. Else
    None; a sum that overflows only sends the values to the record path."""
    if kind is str:
        return [list(map(_escape, column))] if set(map(type, column)) <= {str} else None
    slots = [column] if kind is float else list(column)
    if all(set(map(type, slot)) <= {float} and math.isfinite(sum(slot)) for slot in slots):
        return slots
    return None


def _row_slots(spec: tuple, newline: str, columns: dict,
               lead: tuple = ()) -> tuple[str, list, int] | None:
    """The row template of ``spec`` after a ``%s`` per list of strings in
    ``lead``, its values row by row, flat, from ``lead`` and ``columns``
    (field name to values, a box's as one sequence per coordinate, None
    where an optional field is absent, for a box in its first coordinate),
    and their number per row; None if a value is not spellable. Every
    column is a list of scalars, so no row holds a container of its own."""
    template, layout = _row_format(spec, newline)
    slots = list(lead)
    for name, kind, item in layout:
        column = columns[name]
        if item is None:
            values = _spellable(kind, column)
            if values is None:
                return None
            slots += values
            continue
        scalar = kind is float or kind is str
        marks = column if scalar else column[0]
        present = [mark is not None for mark in marks]
        values = _spellable(kind, list(compress(column, present)) if scalar else
                            [list(compress(coordinate, present)) for coordinate in column])
        if values is None:
            return None
        spelled = map(item.__mod__, zip(*values))
        slots.append([next(spelled) if kept else "" for kept in present])
    flat = [None] * (len(slots) * len(slots[0]))  # the slots' values, row by row
    for j, slot in enumerate(slots):
        flat[j::len(slots)] = slot
    return "%s" * len(lead) + template, flat, len(slots)


class _Rows(NamedTuple):
    """A JSON value written as ``head``, the rows ``template % values``
    (``width`` values a row) joined by ``sep``, then ``tail``."""

    head: str
    template: str = ""
    values: list | tuple = ()
    width: int = 1
    sep: str = ""
    tail: str = ""

    def write(self, write) -> None:
        """Hand ``write`` the value, made by one format call per chunk of rows."""
        write(self.head)
        step = CHUNK_ROWS * self.width
        for start in range(0, len(self.values), step):
            chunk = tuple(self.values[start:start + step])
            rows = self.sep.join([self.template] * (len(chunk) // self.width))
            write((self.sep if start else "") + rows % chunk)
        write(self.tail)


def _list_rows(template: str, values: list, width: int, newline: str) -> _Rows:
    """A JSON list of rows of ``template`` whose items start ``newline``."""
    return _Rows("[" + newline, template, values, width, "," + newline, newline[:-1] + "]")


def _pair_rows(values: list, newline: str) -> _Rows | None:
    """The flat ``values`` as a JSON list of ``[a, b]`` rows whose items start
    ``newline``, when there are some and each is a finite ``float``."""
    if values and _spellable(float, values):
        return _list_rows(_value(2, newline), values, 2, newline)
    return None


def _fields(cls: type, records: list) -> dict | None:
    """Per field of ``cls``, its values in ``records`` (a box's per
    coordinate), when each record is a ``cls`` and each box a row of four."""
    if set(map(type, records)) - {cls}:
        return None
    columns = {}
    for name, _, read, _ in _SPECS[cls]:
        column = list(map(attrgetter(name), records))
        if read is _as_bbox:  # types checked before ``len``
            if set(map(type, column)) - {list, tuple} or set(map(len, column)) - {4}:
                return None
            column = list(zip(*column))
        columns[name] = column
    return columns


def _records(spec: tuple, newline: str, columns: dict | None, count: int) -> _Rows | None:
    """``count`` rows of ``spec`` from ``columns`` as a JSON list whose items
    start ``newline``; None if a value is not spellable."""
    if not count:
        return _Rows("[]")
    rows = None if columns is None else _row_slots(spec, newline, columns)
    return None if rows is None else _list_rows(*rows, newline)


# -- CSI frames ---------------------------------------------------------

def write_csi_frame(path: str | Path, frame: CsiFrame, image_id: str | None = None) -> None:
    """The samples' flat float64 values fill the ``[real, imag]`` row template."""
    pairs = np.ascontiguousarray(frame.samples).view(np.float64)
    values = pairs.ravel().tolist()
    dump_json(path, {
        "schema": CSI_SCHEMA,
        "geometry": _to_record(frame.geometry),
        "timestamp": frame.timestamp,
        "samples": _pair_rows(values, "\n  ") or pairs.reshape(-1, 2).tolist(),
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
    if valid and ((pairs == 0) | (pairs == 1)).any():  # numpy reads true/false as 1/0
        valid = bool not in set(map(type, chain.from_iterable(value)))
    if not valid:
        raise SchemaError(f"expected {count} [real, imag] pairs of finite numbers")
    return pairs.astype(np.float64).view(np.complex128).reshape(geometry.num_antennas, -1)


# -- Annotations --------------------------------------------------------

_IMAGE = (("id", "id", _text, MISSING), ("width", "width", _positive, None),
          ("height", "height", _positive, None))
_IGNORE = (("ignore", "ignore", _flag, False),)


def write_annotations(path: str | Path, image_ids: list[str],
                      annotations: list[Annotation],
                      image_size: tuple[float, float] | None = None) -> None:
    size = {} if image_size is None else dict(zip(("width", "height"), image_size))
    count = len(image_ids)
    images = None if None in size.values() else _records(_IMAGE, "\n  ", {
        "id": image_ids, **{key: [size.get(key)] * count for key in ("width", "height")}}, count)
    rows = _records(_SPECS[Annotation], "\n  ", _fields(Annotation, annotations), len(annotations))
    dump_json(path, {
        "schema": ANNOTATIONS_SCHEMA,
        "images": images or [{"id": str(image_id), **size} for image_id in image_ids],
        "annotations": rows or [_to_record(ann) for ann in annotations]})


def read_annotations(path: str | Path) -> tuple[list[str], Annotations]:
    """Load a COCO-style annotation file: (image ids, annotations). Images
    and annotations are read as whole columns, else record by record."""
    data = load_json(path, ANNOTATIONS_SCHEMA)
    images = _expect(data.get("images", []), list, f"{path}: images")
    image_ids = (_columns(images, _IMAGE)
                 or [[_read_fields(img, _IMAGE, f"{path}: images")[0] for img in images]])[0]
    if (repeated := _repeat(image_ids)) is not None:
        raise SchemaError(f"{path}: images lists id {repeated!r} more than once")
    records = _expect(data.get("annotations", []), list, f"{path}: annotations")
    annotations = _read_annotations(records, str(path))
    named = annotations.named_ids()
    if not image_ids:
        return named, annotations
    if stray := set(named) - set(image_ids):
        raise SchemaError(f"{path}: annotations on images not in images: {sorted(stray)[:3]}")
    return image_ids, annotations


def _read_annotations(records: list, path: str) -> Annotations:
    """The records not flagged ``"ignore": true``, checked as whole columns."""
    flags = _columns(records, _IGNORE)
    if flags is not None:
        columns = _columns([record for record, ignore in zip(records, flags[0]) if not ignore],
                           _SPECS[Annotation])
        if columns is not None and (annotations := Annotations.build(*columns)).valid():
            return annotations
    return Annotations.from_records(
        _from_record(record, Annotation, path) for record in records
        if not _read_fields(record, _IGNORE, f"{path}: annotation")[0])


def _repeat(ids: list[str]) -> str | None:
    """The first id that ``ids`` lists more than once, if any."""
    return next((key for key, n in Counter(ids).items() if n > 1), None)


# -- Detections ---------------------------------------------------------

def write_detections(path: str | Path, detections: Detections) -> None:
    """``Detections`` columns as rows. A table holding a value that no slot
    spells is written through its records, and one holding a value that no
    ``Detection`` holds is refused."""
    cells = detections.cells
    cells = np.where(cells[:, 0] == cells[:, 0], cells.T, None).tolist()  # NaN first: no cell
    rows = _records(_SPECS[Detection], "\n  ", {
        "image_id": list(map(detections.ids.__getitem__, detections.image.tolist())),
        "bbox": detections.boxes.T.tolist(), "score": detections.scores.tolist(),
        "region_id": detections.region_ids.tolist(), "cell": cells,
    }, len(detections))
    if rows is None and not detections.valid():
        raise InvalidInputError(f"{path}: detections hold a score outside [0, 1] or a box "
                                "outside the box domain")
    dump_json(path, {"schema": DETECTIONS_SCHEMA, "detections": rows or [
        _to_record(detection) for detection in detections.records()]})


def read_detections(path: str | Path) -> Detections:
    """Records read as whole columns and checked as whole columns; a list the
    column reader refuses is read again record by record, which names the
    bad record."""
    data = load_json(path, DETECTIONS_SCHEMA)
    records = _expect(_require(data, "detections", str(path)), list, f"{path}: detections")
    columns = _columns(records, _SPECS[Detection])
    if columns is not None and (detections := Detections.build(*columns)).valid():
        return detections
    return Detections.from_records(_from_record(record, Detection, str(path)) for record in records)


# -- Per-image maps: regions and estimates ------------------------------

def _write_by_image(path: str | Path, schema: str, cls: type, by_image: dict | Regions) -> None:
    images = _image_map(cls, by_image) or {
        str(key): list(map(_to_record, items)) for key, items in
        (by_image.records() if isinstance(by_image, Regions) else by_image).items()}
    dump_json(path, {"schema": schema, "images": images})


def _image_map(cls: type, by_image: dict[str, list] | Regions) -> _Rows | None:
    """``by_image`` (or a ``Regions`` table's columns) as an ``images`` map of
    rows of ``cls`` in one run of chunks: each row's first slot holds what
    comes before it, keys and brackets included. None unless every key is a
    ``str`` and every row spellable (and for a table, held by ``cls``)."""
    if isinstance(by_image, Regions):
        t = by_image.grouped(by_image.ids)
        keys, counts = t.ids, np.bincount(t.image, minlength=len(t.ids)).tolist()
        columns = {name: column.tolist() for (name, *_), column in zip(
            _SPECS[cls], (t.center_x, t.center_y, t.edge, t.region_ids))} if t.valid() else None
    else:
        keys = sorted(by_image, key=str)  # a key that is not a str is refused below
        counts = [len(by_image[key]) for key in keys]
        columns = _fields(cls, list(chain.from_iterable(map(by_image.__getitem__, keys))))
    if set(map(type, keys)) - {str}:
        return None
    heads, pending = [], "{\n  "
    for name, count in zip(map(_escape, keys), counts):
        if count:
            heads += [pending + name + ": [\n   "] + [",\n   "] * (count - 1)
            pending = "\n  ],\n  "
        else:
            pending += name + ": [],\n  "
    tail = pending[:-4] + "\n }" if keys else "{}"
    rows = None if columns is None else _row_slots(_SPECS[cls], "\n   ", columns, (heads,))
    return None if rows is None else _Rows("", *rows, "", tail)


def _images(path: str | Path, schema: str) -> dict:
    data = load_json(path, schema)
    return _expect(_require(data, "images", str(path)), dict, f"{path}: images")


def _by_image(path: str | Path, images: dict, record_type: type) -> dict[str, list]:
    """A per-image map of records whose ``identifier`` is unique per image."""
    by_image: dict[str, list] = {}
    for image_id, records in images.items():
        context = f"{path}: image {image_id!r}"
        items = [_from_record(record, record_type, context)
                 for record in _expect(records, list, context)]
        if (repeated := _repeat([item.identifier for item in items])) is not None:
            raise SchemaError(f"{context} repeats id {repeated!r}")
        by_image[image_id] = items
    return by_image


def write_regions(path: str | Path, regions: Regions | dict[str, list[RadioRegion]]) -> None:
    """Regions per image or as a ``Regions`` table, written by ``_image_map``."""
    _write_by_image(path, REGIONS_SCHEMA, RadioRegion, regions)


def read_regions(path: str | Path) -> Regions:
    """Regions read as whole columns, else record by record, image by image."""
    images = _images(path, REGIONS_SCHEMA)
    if not set(map(type, images.values())) - {list}:
        columns = _columns(list(chain.from_iterable(images.values())), _SPECS[RadioRegion])
        if columns is not None:
            owners = [image_id for image_id, records in images.items() for _ in records]
            regions = Regions.build(owners, *columns, table=images)
            if regions.valid() and len(set(zip(owners, columns[-1]))) == len(owners):
                return regions
    return Regions.from_records(_by_image(path, images, RadioRegion))


def write_estimates(path: str | Path,
                    estimates_by_image: dict[str, list[RadioEstimate]]) -> None:
    _write_by_image(path, ESTIMATES_SCHEMA, RadioEstimate, estimates_by_image)


def read_estimates(path: str | Path) -> dict[str, list[RadioEstimate]]:
    return _by_image(path, _images(path, ESTIMATES_SCHEMA), RadioEstimate)


# -- Curves and reports --------------------------------------------------

def write_curve_csv(path: str | Path, curve: list[tuple[float, float]]) -> None:
    """The bytes of ``csv.writer``, which spells a number by ``str`` as ``%s`` does."""
    text = "fppi,miss_rate\r\n" + "%s,%s\r\n" * len(curve) % tuple(chain.from_iterable(curve))
    with _create(path, newline="") as fh:
        fh.write(text)


def write_sweep_csv(path: str | Path, rows: list[dict]) -> None:
    """One line per row under a header of the first row's keys, by ``csv.DictWriter``."""
    with _create(path, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def write_report(path: str | Path, report_dict: dict) -> None:
    """The miss-rate curve under ``metrics`` is written from the ``[fppi,
    miss]`` row template when every point is a pair of finite floats."""
    metrics = report_dict.get("metrics")
    curve = metrics.get("mr_fppi_curve") if isinstance(metrics, dict) else None
    if (isinstance(curve, (list, tuple)) and not set(map(type, curve)) - {list, tuple}
            and not set(map(len, curve)) - {2}
            and (rows := _pair_rows(list(chain.from_iterable(curve)), "\n   "))):
        report_dict = {**report_dict, "metrics": {**metrics, "mr_fppi_curve": rows}}
    dump_json(path, report_dict)
