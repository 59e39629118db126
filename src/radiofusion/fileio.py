"""Readers and writers for the JSON/CSV interchange files.

All structured files are JSON with a ``schema`` tag; exact field layouts
are documented in docs/SCHEMAS.md. Image ids are normalized to strings at
ingest so map keys round-trip. Writers sort object keys, which together
with seeded generation makes whole runs byte-reproducible.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .errors import SchemaError
from .fusion import Detection
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


def _as_bbox(value, context: str) -> tuple[float, float, float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 4:
        raise SchemaError(f"{context}: bbox must be a 4-element [x, y, w, h] list")
    return tuple(float(v) for v in value)


# -- CSI frames ---------------------------------------------------------

def write_csi_frame(path: str | Path, frame: CsiFrame, image_id: str | None = None) -> None:
    geometry = frame.geometry
    flat = frame.samples.reshape(-1)
    payload = {
        "schema": CSI_SCHEMA,
        "geometry": {
            "num_antennas": geometry.num_antennas,
            "element_spacing": geometry.element_spacing,
            "num_subcarriers": geometry.num_subcarriers,
            "base_frequency": geometry.base_frequency,
            "frequency_interval": geometry.frequency_interval,
            "orientation": geometry.orientation,
        },
        "timestamp": frame.timestamp,
        "samples": [[float(s.real), float(s.imag)] for s in flat],
    }
    if image_id is not None:
        payload["image_id"] = str(image_id)
    dump_json(path, payload)


def read_csi_frame(path: str | Path) -> tuple[CsiFrame, str | None]:
    """Load one CSI frame; returns the frame and its optional image id."""
    data = load_json(path, CSI_SCHEMA)
    geo = _require(data, "geometry", str(path))
    geometry = ArrayGeometry(
        num_antennas=int(_require(geo, "num_antennas", str(path))),
        element_spacing=float(_require(geo, "element_spacing", str(path))),
        num_subcarriers=int(_require(geo, "num_subcarriers", str(path))),
        base_frequency=float(_require(geo, "base_frequency", str(path))),
        frequency_interval=float(_require(geo, "frequency_interval", str(path))),
        orientation=geo.get("orientation", "horizontal"),
    )
    pairs = _expect(_require(data, "samples", str(path)), list, f"{path}: samples")
    expected = geometry.num_antennas * geometry.num_subcarriers
    if len(pairs) != expected:
        raise SchemaError(f"{path}: expected {expected} samples, got {len(pairs)}")
    flat = np.array([complex(re, im) for re, im in pairs])
    samples = flat.reshape(geometry.num_antennas, geometry.num_subcarriers)
    frame = CsiFrame(samples=samples, geometry=geometry,
                     timestamp=float(data.get("timestamp", 0.0)))
    image_id = data.get("image_id")
    return frame, (str(image_id) if image_id is not None else None)


# -- Annotations --------------------------------------------------------

def write_annotations(path: str | Path, image_ids: list[str],
                      annotations: list[Annotation],
                      image_size: tuple[float, float] | None = None) -> None:
    images = []
    for image_id in image_ids:
        record: dict = {"id": str(image_id)}
        if image_size is not None:
            record["width"], record["height"] = image_size
        images.append(record)
    payload = {
        "schema": ANNOTATIONS_SCHEMA,
        "images": images,
        "annotations": [
            {
                "image_id": ann.image_id,
                "category": ann.category,
                "bbox": list(ann.bbox),
                **({"height": ann.height_px} if ann.height_px is not None else {}),
                **({"occlusion": ann.occlusion_fraction}
                   if ann.occlusion_fraction is not None else {}),
            }
            for ann in annotations
        ],
    }
    dump_json(path, payload)


def read_annotations(path: str | Path) -> tuple[list[str], list[Annotation]]:
    """Load a COCO-style annotation file: (image ids, annotations)."""
    data = load_json(path, ANNOTATIONS_SCHEMA)
    images = _expect(data.get("images", []), list, f"{path}: images")
    image_ids = [str(_require(img, "id", str(path))) for img in images]
    annotations = []
    for record in _expect(data.get("annotations", []), list, f"{path}: annotations"):
        if _expect(record, dict, f"{path}: annotation").get("ignore", False):
            continue
        annotations.append(
            Annotation(
                image_id=str(_require(record, "image_id", str(path))),
                bbox=_as_bbox(_require(record, "bbox", str(path)), str(path)),
                category=str(record.get("category", "person")),
                height_px=(float(record["height"]) if "height" in record else None),
                occlusion_fraction=(float(record["occlusion"])
                                    if "occlusion" in record else None),
            )
        )
    if not image_ids:
        image_ids = sorted({ann.image_id for ann in annotations})
    return image_ids, annotations


# -- Regions ------------------------------------------------------------

def write_regions(path: str | Path, regions_by_image: dict[str, list[RadioRegion]]) -> None:
    payload = {
        "schema": REGIONS_SCHEMA,
        "images": {
            str(image_id): [
                {
                    "id": region.identifier,
                    "center_x": region.center_x,
                    "center_y": region.center_y,
                    "edge": region.edge,
                }
                for region in regions
            ]
            for image_id, regions in regions_by_image.items()
        },
    }
    dump_json(path, payload)


def read_regions(path: str | Path) -> dict[str, list[RadioRegion]]:
    data = load_json(path, REGIONS_SCHEMA)
    regions_by_image: dict[str, list[RadioRegion]] = {}
    images = _expect(_require(data, "images", str(path)), dict, f"{path}: images")
    for image_id, records in images.items():
        regions = [
            RadioRegion(
                center_x=float(_require(r, "center_x", str(path))),
                center_y=float(_require(r, "center_y", str(path))),
                edge=float(_require(r, "edge", str(path))),
                identifier=str(_require(r, "id", str(path))),
            )
            for r in _expect(records, list, f"{path}: image {image_id!r}")
        ]
        if len({region.identifier for region in regions}) != len(regions):
            raise SchemaError(f"{path}: image {image_id!r} repeats a region id")
        regions_by_image[str(image_id)] = regions
    return regions_by_image


# -- Detections ---------------------------------------------------------

def write_detections(path: str | Path, detections: list[Detection]) -> None:
    payload = {
        "schema": DETECTIONS_SCHEMA,
        "detections": [
            {
                "image_id": det.image_id,
                "bbox": list(det.bbox),
                "score": det.score,
                **({"region_id": det.region_id} if det.region_id is not None else {}),
                **({"cell": list(det.cell)} if det.cell is not None else {}),
            }
            for det in detections
        ],
    }
    dump_json(path, payload)


def read_detections(path: str | Path) -> list[Detection]:
    data = load_json(path, DETECTIONS_SCHEMA)
    detections = []
    records = _expect(_require(data, "detections", str(path)), list, f"{path}: detections")
    for record in records:
        detections.append(
            Detection(
                image_id=str(_require(record, "image_id", str(path))),
                bbox=_as_bbox(_require(record, "bbox", str(path)), str(path)),
                score=float(_require(record, "score", str(path))),
                region_id=(str(record["region_id"]) if "region_id" in record else None),
                cell=(_as_bbox(record["cell"], str(path)) if "cell" in record else None),
            )
        )
    return detections


# -- Estimates ----------------------------------------------------------

def write_estimates(path: str | Path,
                    estimates_by_image: dict[str, list[RadioEstimate]]) -> None:
    payload = {
        "schema": ESTIMATES_SCHEMA,
        "images": {
            str(image_id): [
                {
                    "id": est.identifier,
                    "aoa_h": est.aoa_h,
                    "aoa_v": est.aoa_v,
                    "tof": est.tof,
                    "magnitude": est.magnitude,
                }
                for est in estimates
            ]
            for image_id, estimates in estimates_by_image.items()
        },
    }
    dump_json(path, payload)


def read_estimates(path: str | Path) -> dict[str, list[RadioEstimate]]:
    data = load_json(path, ESTIMATES_SCHEMA)
    estimates_by_image: dict[str, list[RadioEstimate]] = {}
    images = _expect(_require(data, "images", str(path)), dict, f"{path}: images")
    for image_id, records in images.items():
        estimates_by_image[str(image_id)] = [
            RadioEstimate(
                aoa_h=float(_require(r, "aoa_h", str(path))),
                aoa_v=float(_require(r, "aoa_v", str(path))),
                tof=float(_require(r, "tof", str(path))),
                magnitude=float(r.get("magnitude", 0.0)),
                identifier=str(_require(r, "id", str(path))),
            )
            for r in _expect(records, list, f"{path}: image {image_id!r}")
        ]
    return estimates_by_image


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
    return [(float(a), float(b)) for a, b in rows[1:]]


def write_report(path: str | Path, report_dict: dict) -> None:
    dump_json(path, report_dict)


def read_report(path: str | Path) -> dict:
    return load_json(path)
