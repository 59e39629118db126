"""Synthetic scenes and detector outputs for end-to-end pipeline runs.

Real detector backbones are out of scope, so trend experiments run against
a generated world of person boxes plus a detector emulator that reproduces
the classic failure modes: corner-jittered true positives, duplicate boxes
on already-detected people, dropped people, and uniformly placed distractor
false positives with their own score distribution. Everything is driven by
one seeded generator with a fixed iteration order, so a run is reproducible
bit for bit.

World boxes are drawn with height/width ratios in a moderate band (people
standing, walking or crouching, not extreme poles), which keeps a square
localization region informative about its person at the usual 0.5 IoU.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .sim_regions import Annotation
from .world import Detection, group_by_image


HEIGHT_RANGE, ASPECT_RANGE = (120.0, 360.0), (1.3, 1.9)  # world box height px, height / width
# The largest mean numpy's Generator.poisson accepts.
POISSON_LAM_MAX = np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class SynthParams:
    """Detector emulator knobs; defaults exhibit duplicates and misses."""

    jitter_std: float = 0.05
    fp_per_image: float = 1.0
    fn_rate: float = 0.1
    duplicate_rate: float = 0.2
    duplicate_jitter_std: float = 0.35
    score_model: tuple[float, float, float] = (0.8, 0.4, 0.15)
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("jitter_std", "fp_per_image", "fn_rate", "duplicate_rate",
                     "duplicate_jitter_std", "score_model"):
            value = getattr(self, name)
            if not np.isfinite(value).all():
                raise InvalidInputError(f"synth {name} must be finite, got {value!r}")
        if not 0.0 <= self.fn_rate <= 1.0 or not 0.0 <= self.duplicate_rate <= 1.0:
            raise InvalidInputError("rates must be in [0, 1]")
        if self.jitter_std < 0 or self.duplicate_jitter_std < 0 or self.fp_per_image < 0:
            raise InvalidInputError("spreads and expected counts must be >= 0")
        if self.fp_per_image > POISSON_LAM_MAX:
            raise InvalidInputError(f"synth fp_per_image must be <= {POISSON_LAM_MAX:.6g}")
        if self.score_model[2] < 0:
            raise InvalidInputError("score std must be >= 0")


def make_world(
    num_images: int,
    image_size: tuple[float, float] = (1280.0, 720.0),
    max_people: int = 3,
    seed: int = 0,
) -> tuple[list[str], list[Annotation]]:
    """Generate image ids and person annotations for a synthetic dataset.

    Each image holds 0..max_people people (some frames stay empty). Boxes
    are placed fully inside the image with heights from ``HEIGHT_RANGE``
    and height/width ratios from ``ASPECT_RANGE``.
    """
    if num_images <= 0:
        raise InvalidInputError("num_images must be > 0")
    width, height = image_size
    rng = np.random.default_rng(seed)
    image_ids = [f"img{i:05d}" for i in range(num_images)]
    annotations: list[Annotation] = []
    for image_id in image_ids:
        count = int(rng.integers(0, max_people + 1))
        for _ in range(count):
            h = float(rng.uniform(*HEIGHT_RANGE))
            h = min(h, height)
            ratio = float(rng.uniform(*ASPECT_RANGE))
            w = min(h / ratio, width)
            x = float(rng.uniform(0.0, width - w))
            y = float(rng.uniform(0.0, height - h))
            annotations.append(Annotation(image_id=image_id, bbox=(x, y, w, h)))
    return image_ids, annotations


def _clamped_score(rng: np.random.Generator, mean: float, std: float) -> float:
    return float(np.clip(rng.normal(mean, std), 0.0, 1.0))


def _jitter_box(rng, bbox, spread):
    """Jitter the two corners with Gaussian noise proportional to box size."""
    x, y, w, h = bbox
    x1 = x + rng.normal(0.0, spread * w)
    y1 = y + rng.normal(0.0, spread * h)
    x2 = x + w + rng.normal(0.0, spread * w)
    y2 = y + h + rng.normal(0.0, spread * h)
    return (
        min(x1, x2),
        min(y1, y2),
        max(abs(x2 - x1), 1.0),
        max(abs(y2 - y1), 1.0),
    )


def generate(
    gts: list[Annotation],
    params: SynthParams,
    image_ids: list[str],
    image_size: tuple[float, float] = (1280.0, 720.0),
) -> list[Detection]:
    """Emulate detector output on each of ``image_ids``, once, in sorted order.

    Per person: dropped with probability ``fn_rate``, otherwise emitted with
    corner jitter and a true-positive score; an extra, more displaced
    duplicate follows with probability ``duplicate_rate``. Per image
    (including empty frames), a Poisson number of false positives is placed
    uniformly at random with the false-positive score model. False
    positives are redrawn in the vanishingly unlikely event they coincide
    exactly with a ground-truth box.
    """
    width, height = image_size
    tp_mean, fp_mean, score_std = params.score_model
    rng = np.random.default_rng(params.seed)

    gts_by_image = group_by_image(gts)
    detections: list[Detection] = []
    for image_id in sorted(set(image_ids)):
        anns = gts_by_image.get(image_id, [])
        gt_boxes = {tuple(ann.bbox) for ann in anns}
        for ann in anns:
            if rng.uniform() < params.fn_rate:
                continue
            if params.jitter_std > 0:
                box = _jitter_box(rng, ann.bbox, params.jitter_std)
            else:
                box = tuple(ann.bbox)
            detections.append(
                Detection(image_id=image_id, bbox=box,
                          score=_clamped_score(rng, tp_mean, score_std))
            )
            if rng.uniform() < params.duplicate_rate:
                dup = _jitter_box(rng, ann.bbox, params.duplicate_jitter_std)
                detections.append(
                    Detection(image_id=image_id, bbox=dup,
                              score=_clamped_score(rng, tp_mean, score_std))
                )
        for _ in range(int(rng.poisson(params.fp_per_image))):
            while True:
                w = float(rng.uniform(25.0, 0.25 * width))
                h = w * float(rng.uniform(1.2, 2.6))
                h = min(h, height)
                x = float(rng.uniform(0.0, width - w))
                y = float(rng.uniform(0.0, height - h))
                if (x, y, w, h) not in gt_boxes:
                    break
            detections.append(
                Detection(image_id=image_id, bbox=(x, y, w, h),
                          score=_clamped_score(rng, fp_mean, score_std))
            )
    return detections
