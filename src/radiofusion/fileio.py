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
the only JSON the package spells itself, and the only way a writer spells
a record. A column of finite floats or of strings fills its slots as it
is; any other goes through the value reader its ``_SPECS`` entry names, so
a number is written as the float, and an id or map key as the string, that
its reader reads back, and a value the reader refuses raises
``InvalidInputError``. Every value is checked and every string escaped
before the file opens, and ``dump_json`` encodes everything but the row
runs before it opens the file, so nothing can fail once it is open.
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


# The JSON type of the values each reader takes as they are on the column
# path, and that its template slots spell as they are (a box as four floats).
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


def _value(kind, newline: str) -> str:
    """The template of one value of JSON type ``kind`` on the line that
    ``newline`` starts; a list is a box of four floats, an int ``n`` a list
    of ``n`` floats."""
    if kind is float:
        return "%r"
    if kind is str:
        return "%s"
    inner = newline + " "
    return "[" + inner + ("," + inner).join(["%r"] * (4 if kind is list else kind)) + newline + "]"


@cache
def _row_format(spec: tuple, newline: str) -> tuple[str, tuple]:
    """The template of one record of ``spec`` whose brace starts ``newline``
    and, per entry in key order, its (file key, value reader, item template
    of an optional field, else None). An optional item ends in its comma
    before the first required one and starts with it after."""
    inner = newline + " "
    entries = sorted((key, read, default is None) for _, key, read, default in spec)
    first = [optional for *_, optional in entries].index(False)
    template, layout = "{", []
    for i, (key, read, optional) in enumerate(entries):
        item = _escape(key) + ": " + _value(_EXACT[read], inner)
        if optional:
            template += "%s"
            layout.append((key, read, inner + item + "," if i < first else "," + inner + item))
        else:
            template += ("," if i > first else "") + inner + item
            layout.append((key, read, None))
    return template + newline + "}", tuple(layout)


def _spellable(read, column, context: str) -> list:
    """The slot lists of ``read``'s template for ``column``; a box column
    comes as one sequence per coordinate. A slot of ``str`` (escaped), or of
    ``float`` whose sum is finite (and, for ``_positive``, whose minimum is
    above 0), fills its slots as it is. Any other is first read by ``read``
    (a box's coordinates by ``_float``), which gives each value as its
    reader reads it back, so a ``float`` slot whose sum overflows comes back
    unchanged. A value the reader refuses raises ``InvalidInputError`` after
    ``context``."""
    try:
        if read is _text:
            return [list(map(_escape, column if set(map(type, column)) <= {str}
                             else map(_text, column)))]
        value, slots = (_float, list(column)) if read is _as_bbox else (read, [column])
        return [slot if set(map(type, slot)) <= {float} and math.isfinite(sum(slot))
                and (read is not _positive or min(slot, default=1.0) > 0.0)
                else list(map(value, slot)) for slot in slots]
    except SchemaError as exc:
        raise InvalidInputError(f"{context}: {exc}") from None


def _row_slots(spec: tuple, newline: str, columns: dict, context: str,
               lead: tuple = ()) -> tuple[str, list, int]:
    """The row template of ``spec`` after a ``%s`` per list of strings in
    ``lead``, its values row by row, flat, from ``lead`` and ``columns``
    (file key to values, a box's as one sequence per coordinate, None
    where an optional field is absent, for a box in its first coordinate),
    and their number per row. A refused value is named by ``context`` and
    its key. Every column is a list of scalars, so no row holds a container
    of its own."""
    template, layout = _row_format(spec, newline)
    slots = list(lead)
    for key, read, item in layout:
        column, where = columns[key], f"{context}: {key}"
        if item is None:
            slots += _spellable(read, column, where)
            continue
        scalar = read is not _as_bbox
        marks = column if scalar else column[0]
        present = [mark is not None for mark in marks]
        spelled = map(item.__mod__, zip(*_spellable(
            read, list(compress(column, present)) if scalar else
            [list(compress(coordinate, present)) for coordinate in column], where)))
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
    """A JSON list of rows of ``template`` whose items start ``newline``;
    ``[]`` when there are none."""
    if not values:
        return _Rows("[]")
    return _Rows("[" + newline, template, values, width, "," + newline, newline[:-1] + "]")


def _pair_rows(values: list, newline: str, context: str) -> _Rows:
    """The flat ``values`` as a JSON list of ``[a, b]`` rows whose items start
    ``newline``, each value as ``_float`` reads it."""
    return _list_rows(_value(2, newline), _spellable(_float, values, context)[0], 2, newline)


def _fields(cls: type, records: list) -> dict:
    """Per field of ``cls``, under its file key, its values in ``records`` (a
    box's per coordinate); a record that is not a ``cls`` raises ``TypeError``."""
    if stray := set(map(type, records)) - {cls}:
        raise TypeError(f"expected {cls.__name__} records, got {stray.pop().__name__}")
    columns = {}
    for name, key, read, _ in _SPECS[cls]:
        column = list(map(attrgetter(name), records))
        columns[key] = list(zip(*column)) if read is _as_bbox else column
    return columns


def _records(spec: tuple, newline: str, columns: dict, context: str) -> _Rows:
    """The rows of ``spec`` from ``columns`` as a JSON list whose items start
    ``newline``; a refused value is named by ``context``."""
    return _list_rows(*_row_slots(spec, newline, columns, context), newline)


# -- CSI frames ---------------------------------------------------------

def write_csi_frame(path: str | Path, frame: CsiFrame, image_id: str | None = None) -> None:
    """The samples' flat float64 values fill the ``[real, imag]`` row template."""
    pairs = np.ascontiguousarray(frame.samples).view(np.float64)
    dump_json(path, {
        "schema": CSI_SCHEMA,
        "geometry": _to_record(frame.geometry),
        "timestamp": frame.timestamp,
        "samples": _pair_rows(pairs.ravel().tolist(), "\n  ", f"{path}: samples"),
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
    samples = pairs.astype(np.float64, copy=False)  # integer input converts; float64 is kept
    return samples.view(np.complex128).reshape(geometry.num_antennas, -1)


# -- Annotations --------------------------------------------------------

_IMAGE = (("id", "id", _text, MISSING), ("width", "width", _positive, None),
          ("height", "height", _positive, None))
_IGNORE = (("ignore", "ignore", _flag, False),)


def write_annotations(path: str | Path, image_ids: list[str],
                      annotations: list[Annotation],
                      image_size: tuple[float, float] | None = None) -> None:
    width, height = (None, None) if image_size is None else image_size
    count = len(image_ids)
    images = {"id": image_ids, "width": [width] * count, "height": [height] * count}
    dump_json(path, {
        "schema": ANNOTATIONS_SCHEMA,
        "images": _records(_IMAGE, "\n  ", images, f"{path}: images"),
        "annotations": _records(_SPECS[Annotation], "\n  ", _fields(Annotation, annotations),
                                f"{path}: annotations")})


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
    """``Detections`` columns as rows; a table holding a value that no
    ``Detection`` holds is refused."""
    if not detections.valid():
        raise InvalidInputError(f"{path}: detections hold a score outside [0, 1] or a box "
                                "outside the box domain")
    cells = detections.cells
    cells = np.where(cells[:, 0] == cells[:, 0], cells.T, None).tolist()  # NaN first: no cell
    rows = _records(_SPECS[Detection], "\n  ", {
        "image_id": list(map(detections.ids.__getitem__, detections.image.tolist())),
        "bbox": detections.boxes.T.tolist(), "score": detections.scores.tolist(),
        "region_id": detections.region_ids.tolist(), "cell": cells,
    }, f"{path}: detections")
    dump_json(path, {"schema": DETECTIONS_SCHEMA, "detections": rows})


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

def _image_map(cls: type, by_image: dict[str, list] | Regions, context: str) -> _Rows:
    """``by_image`` (or a ``Regions`` table's columns) as an ``images`` map of
    rows of ``cls`` in one run of chunks: each row's first slot holds what
    comes before it, keys and brackets included. A key is spelled as its
    ``str``, and the keys are sorted as strings; two keys that spell alike
    are refused."""
    if isinstance(by_image, Regions):
        t = by_image.grouped(sorted(by_image.ids, key=str))
        keys, counts = t.ids, np.bincount(t.image, minlength=len(t.ids)).tolist()
        columns = {key: column.tolist() for (_, key, *_), column in zip(
            _SPECS[cls], (t.center_x, t.center_y, t.edge, t.region_ids))}
    else:
        keys = sorted(by_image, key=str)
        counts = [len(by_image[key]) for key in keys]
        columns = _fields(cls, list(chain.from_iterable(map(by_image.__getitem__, keys))))
    names = list(map(str, keys))
    if len(set(names)) < len(names):  # sorted as strings, so keys that spell alike are neighbours
        i = next(i for i in range(1, len(names)) if names[i] == names[i - 1])
        raise InvalidInputError(f"{context}: keys {keys[i - 1]!r} and {keys[i]!r} are both "
                                f"written as {names[i]!r}")
    heads, pending = [], "{\n  "
    for name, count in zip(map(_escape, names), counts):
        if count:
            heads += [pending + name + ": [\n   "] + [",\n   "] * (count - 1)
            pending = "\n  ],\n  "
        else:
            pending += name + ": [],\n  "
    tail = pending[:-4] + "\n }" if keys else "{}"
    return _Rows("", *_row_slots(_SPECS[cls], "\n   ", columns, context, (heads,)), "", tail)


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
    """Regions per image or as a ``Regions`` table, written by ``_image_map``;
    a table holding a row that no ``RadioRegion`` holds is refused."""
    if isinstance(regions, Regions) and not regions.valid():
        raise InvalidInputError(f"{path}: regions hold an edge not > 0 or a square or anchor "
                                "outside the box domain")
    dump_json(path, {"schema": REGIONS_SCHEMA,
                     "images": _image_map(RadioRegion, regions, f"{path}: images")})


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
    dump_json(path, {"schema": ESTIMATES_SCHEMA,
                     "images": _image_map(RadioEstimate, estimates_by_image, f"{path}: images")})


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
    """The miss-rate curve under ``metrics``, ``[fppi, miss]`` points, is
    written from the ``[a, b]`` row template."""
    metrics = report_dict.get("metrics")
    if isinstance(metrics, dict) and "mr_fppi_curve" in metrics:
        values = [value for fppi, miss in metrics["mr_fppi_curve"] for value in (fppi, miss)]
        rows = _pair_rows(values, "\n   ", f"{path}: mr_fppi_curve")
        report_dict = {**report_dict, "metrics": {**metrics, "mr_fppi_curve": rows}}
    dump_json(path, report_dict)
