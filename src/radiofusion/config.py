"""Run configuration: one JSON document drives every pipeline command.

All randomness flows from the single ``seed`` through named substreams
(one per concern), so changing, say, the detector emulation can never
perturb the region noise draws.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import InvalidInputError, SchemaError, require_finite
from .fileio import _number, dump_json, load_json
from .imaging import CameraModel
from .nms import NmsConfig
from .sim_regions import NoiseParams
from .synth import SynthParams

# Per method: where each image's candidates come from ("detector",
# "revised" detector output, or region "proposals"), and the constrained
# NMS mode, which is also the region association mode (None: plain NMS).
METHOD_STEPS: dict[str, tuple[str, str | None]] = {
    "baseline": ("detector", None),
    "method1": ("revised", None),
    "method2": ("proposals", None),
    "method1+cnms": ("revised", "one_stage"),
    "method2+cnms": ("proposals", "two_stage"),
}
METHODS = tuple(METHOD_STEPS)


MAX_GRID_CELLS = 1_000_000  # angle x delay cells of one spectrum (default 181 x 64)


@dataclass(frozen=True)
class RadioParams:
    """Spectrum search and projection knobs."""

    aoa_step_deg: float = 1.0
    num_tof_bins: int = 64
    peak_threshold: float = 0.5
    tof_tolerance: float | None = None  # None: two delay bins
    round_trip_factor: float = 1.0
    person_extent_m: float = 1.0

    def __post_init__(self) -> None:
        require_finite("radio", self.aoa_step_deg, self.peak_threshold, self.tof_tolerance,
                       self.round_trip_factor, self.person_extent_m)
        if self.aoa_step_deg <= 0 or self.num_tof_bins < 1:
            raise InvalidInputError("grid resolution must be positive")
        # default_aoa_grid holds ceil(span) angles, as np.arange counts them.
        span = (180.0 + 0.5 * self.aoa_step_deg) / self.aoa_step_deg
        angles = math.ceil(span) if span <= MAX_GRID_CELLS else span
        if angles * self.num_tof_bins > MAX_GRID_CELLS:
            raise InvalidInputError(
                f"{angles:.6g} angles x {self.num_tof_bins} delays exceeds {MAX_GRID_CELLS} "
                "grid cells; raise aoa_step_deg or lower num_tof_bins")
        if not 0.0 < self.peak_threshold <= 1.0:
            raise InvalidInputError("peak_threshold must be in (0, 1]")
        if self.person_extent_m <= 0 or self.round_trip_factor <= 0:
            raise InvalidInputError("projection factors must be > 0")
        if self.tof_tolerance is not None and self.tof_tolerance <= 0:
            raise InvalidInputError(f"tof_tolerance must be > 0, got {self.tof_tolerance}")


@dataclass(frozen=True)
class RunPaths:
    annotations: str | None = None
    detections: str | None = None
    regions: str | None = None
    output_dir: str = "out"


@dataclass(frozen=True)
class RunConfig:
    """Everything a pipeline run needs besides the input files themselves."""

    seed: int = 1234
    lam: float = 0.5
    mode: str = "two_stage"
    method: str = "baseline"
    score_threshold: float = 0.3
    gt_filter: str = "none"
    count_constrained: bool = False
    noise: NoiseParams = field(default_factory=NoiseParams)
    nms: NmsConfig = field(default_factory=NmsConfig)
    camera: CameraModel = field(default_factory=lambda: CameraModel(
        focal_length_px=3000.0, image_width=1280.0, image_height=720.0,
        fov_h=64.0, fov_v=52.0))
    radio: RadioParams = field(default_factory=RadioParams)
    synth: SynthParams = field(default_factory=SynthParams)
    paths: RunPaths = field(default_factory=RunPaths)

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.lam <= 1.0:
            raise InvalidInputError("lam must be in [0, 1]")
        if self.method not in METHODS:
            raise InvalidInputError(f"method must be one of {METHODS}")
        if self.mode not in ("one_stage", "two_stage"):
            raise InvalidInputError(f"unknown mode {self.mode!r}")
        if self.gt_filter not in ("none", "reasonable", "all"):
            raise InvalidInputError(f"unknown gt_filter {self.gt_filter!r}")
        if not 0.0 <= self.score_threshold <= 1.0:
            raise InvalidInputError("score_threshold must be in [0, 1]")

    def substream(self, name: str) -> np.random.Generator:
        """Deterministic per-purpose generator derived from the run seed."""
        return np.random.default_rng(
            np.random.SeedSequence([self.seed, zlib.crc32(name.encode())])
        )

    def substream_seed(self, name: str) -> int:
        """Stable integer seed for components that take a seed, not a generator."""
        return int(self.substream(name).integers(0, 2**31 - 1))

    @property
    def image_size(self) -> tuple[float, float]:
        """Image width and height in pixels, as the camera sees them."""
        return (self.camera.image_width, self.camera.image_height)

    def merge(self, patch: dict) -> "RunConfig":
        """This config with a partial document (same keys as the file) applied."""
        return _merge(self, patch, "config")

    def to_dict(self) -> dict:
        return _to_json(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        return cls().merge(data)

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        return cls.from_dict(load_json(path))

    def save(self, path: str | Path) -> None:
        dump_json(path, self.to_dict())


# Document keys that differ from field names: ``lambda`` is a Python keyword.
_KEYS = {"lam": "lambda"}
# Section fields a run sets itself, so the document has no key for them: the
# NMS mode comes from the method, the seeds from the run seed's substreams.
_RUN_SET = {(NmsConfig, "mode"), (NoiseParams, "seed"), (SynthParams, "seed")}


def _document_keys(section) -> dict[str, str]:
    """Document key -> field name, for every field of ``section`` a document sets."""
    return {_KEYS.get(f.name, f.name): f.name for f in fields(section)
            if (type(section), f.name) not in _RUN_SET}


def _to_json(value):
    if is_dataclass(value):
        return {key: _to_json(getattr(value, name))
                for key, name in _document_keys(value).items()}
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


def _merge(base, patch, where: str):
    """``base`` with every key of ``patch`` coerced by its field type and set."""
    if not isinstance(patch, dict):
        raise SchemaError(f"{where}: expected an object, got {type(patch).__name__}")
    names = _document_keys(base)
    unknown = sorted(set(patch) - set(names))
    if unknown:
        raise SchemaError(f"{where}: unknown keys {unknown}")
    hints = get_type_hints(type(base))
    changes = {}
    for key, value in patch.items():
        name = names[key]
        changes[name] = _coerce(hints[name], value, getattr(base, name), f"{where}.{key}")
    try:
        return replace(base, **changes)
    except InvalidInputError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _coerce(hint, value, current, where: str):
    if is_dataclass(hint):
        return _merge(current, value, where)
    args = get_args(hint)
    if type(None) in args:  # X | None
        (inner,) = [a for a in args if a is not type(None)]
        return None if value is None else _coerce(inner, value, current, where)
    try:
        if get_origin(hint) is tuple:
            if not isinstance(value, (list, tuple)) or len(value) != len(args):
                raise TypeError(f"expected {len(args)} values")
            return tuple(_coerce(a, v, None, where) for a, v in zip(args, value))
        if hint in (bool, str) and not isinstance(value, hint):
            raise TypeError(f"not a {hint.__name__}")
        return _number(hint, value) if hint in (float, int) else hint(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{where}: cannot read {value!r} ({exc})") from exc
