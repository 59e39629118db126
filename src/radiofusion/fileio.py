"""Readers and writers for the JSON/CSV interchange files.

All structured files are JSON with a ``schema`` tag; exact field layouts
are documented in docs/SCHEMAS.md. Records are read and written by one
codec whose keys and value readers derive from the record dataclasses.
Image ids are normalized to strings at ingest so map keys round-trip.
Writers sort object keys, which together with seeded generation makes
whole runs byte-reproducible.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import MISSING, fields
from functools import partial
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .errors import SchemaError
from .fusion import Detection
from .geometry import Rect
from .imaging import RadioRegion
from .radio import ArrayGeometry, CsiFrame, RadioEstimate
from .sim_regions import Annotation

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
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


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
    """``kind(value)`` for ``float`` or ``int``; it must coerce and be finite."""
    try:
        number = kind(value)
        if math.isfinite(number):
            return number
    except (TypeError, ValueError, OverflowError):
        pass
    raise SchemaError(f"expected a finite number, got {value!r}")


_float = partial(_number, float)


def _as_bbox(value) -> Rect:
    if not isinstance(value, (list, tuple)) or len(value) != 4:
        raise SchemaError("expected a 4-element [x, y, w, h] list")
    return tuple(map(_float, value))


# -- Record codec --------------------------------------------------------
# Per record type, one (field name, file key, value reader, default) entry
# per field. A MISSING default makes the key required; null reads as absent,
# so an ``X | None`` field uses the reader of ``X``.

_KEYS = {"identifier": "id", "height_px": "height", "occlusion_fraction": "occlusion"}
_READERS = {str: str, float: _float, int: partial(_number, int), Rect: _as_bbox}
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
    return cls(**{name: _field(record, key, read, default, context)
                  for name, key, read, default in _SPECS[cls]})


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
    samples = _field(data, "samples", partial(_as_samples, geometry), MISSING, str(path))
    timestamp = _field(data, "timestamp", _float, 0.0, str(path))
    return CsiFrame(samples, geometry, timestamp), _field(data, "image_id", str, None, str(path))


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
    image_ids = [str(_require(img, "id", str(path))) for img in images]
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

def write_detections(path: str | Path, detections: list[Detection]) -> None:
    dump_json(path, {"schema": DETECTIONS_SCHEMA,
                     "detections": [_to_record(det) for det in detections]})


def read_detections(path: str | Path) -> list[Detection]:
    data = load_json(path, DETECTIONS_SCHEMA)
    records = _expect(_require(data, "detections", str(path)), list, f"{path}: detections")
    return [_from_record(record, Detection, str(path)) for record in records]


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

def write_curve_csv(path: str | Path, curve: list[tuple[float, float]],
                    header: tuple[str, str] = ("fppi", "miss_rate")) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([list(point) for point in curve])


def read_curve_csv(path: str | Path) -> list[tuple[float, float]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return [(_float(a), _float(b)) for a, b in rows[1:]]


def write_report(path: str | Path, report_dict: dict) -> None:
    dump_json(path, report_dict)


def read_report(path: str | Path) -> dict:
    return load_json(path)
