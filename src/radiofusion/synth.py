"""Synthetic scenes and detector outputs for end-to-end pipeline runs.

Real detector backbones are out of scope, so trend experiments run against
a generated world of person boxes plus a detector emulator that reproduces
the classic failure modes: corner-jittered true positives, duplicate boxes
on already-detected people, dropped people, and uniformly placed distractor
false positives with their own score distribution. Everything is driven by
one seeded generator with a fixed iteration order, so a run is reproducible
bit for bit. A run of like draws takes one call: numpy fills an array from
the stream as one scalar call per value would, and its scalar ``uniform(a,
b)`` is ``a + (b - a) * u`` and ``normal(loc, scale)`` is ``loc + scale * z``,
spelled so here: every value is the float of one call per value.

World boxes are drawn with height/width ratios in a moderate band (people
standing, walking or crouching, not extreme poles), which keeps a square
localization region informative about its person at the usual 0.5 IoU.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .world import Annotation, Annotations, Detections


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
        # Signs, as numpy's normal and poisson refuse -0.0 too (a -0.0
        # jitter_std draws no jitter, as 0.0 does).
        if self.jitter_std < 0 or min(math.copysign(1.0, self.duplicate_jitter_std),
                                      math.copysign(1.0, self.fp_per_image)) < 0:
            raise InvalidInputError("spreads and expected counts must be >= 0")
        if self.fp_per_image > POISSON_LAM_MAX:
            raise InvalidInputError(f"synth fp_per_image must be <= {POISSON_LAM_MAX:.6g}")
        if math.copysign(1.0, self.score_model[2]) < 0:
            raise InvalidInputError("score std must be >= 0")


def _image_size(image_size: tuple[float, float]) -> tuple[float, float]:
    width, height = image_size
    if not (0 < width < math.inf and 0 < height < math.inf):  # also refuses NaN
        raise InvalidInputError(f"image size must be finite and > 0, got {tuple(image_size)}")
    return width, height


def make_world(num_images: int, image_size: tuple[float, float] = (1280.0, 720.0),
               max_people: int = 3, seed: int = 0) -> tuple[list[str], list[Annotation]]:
    """Generate image ids and person annotations for a synthetic dataset.

    Each image holds 0..max_people people (some frames stay empty). Boxes
    are placed fully inside the image with heights from ``HEIGHT_RANGE``
    and height/width ratios from ``ASPECT_RANGE``. Per image, one integer
    draw gives the head count and one ``random`` call each person's four
    unit draws (height, ratio, x, y); the boxes are then computed for the
    whole world at once.
    """
    if num_images <= 0:
        raise InvalidInputError("num_images must be > 0")
    if type(max_people) is bool or not isinstance(max_people, int | np.integer) or max_people < 0:
        raise InvalidInputError(f"max_people must be an integer >= 0, got {max_people!r}")
    width, height = _image_size(image_size)
    rng = np.random.default_rng(seed)
    image_ids = [f"img{i:05d}" for i in range(num_images)]
    draws = [rng.random(4 * int(rng.integers(0, max_people + 1))) for _ in image_ids]
    u_h, u_ratio, u_x, u_y = np.concatenate(draws).reshape(-1, 4).T
    (h_lo, h_hi), (r_lo, r_hi) = HEIGHT_RANGE, ASPECT_RANGE
    h = np.minimum(h_lo + (h_hi - h_lo) * u_h, height)
    w = np.minimum(h / (r_lo + (r_hi - r_lo) * u_ratio), width)
    x, y = 0.0 + (width - w) * u_x, 0.0 + (height - h) * u_y
    owners = [key for key, draw in zip(image_ids, draws) for _ in range(draw.size // 4)]
    boxes = zip(x.tolist(), y.tolist(), w.tolist(), h.tolist())
    return image_ids, list(map(Annotation, owners, boxes))


def _jittered(box, spread: float, z: list[float]):
    """``box``, each corner moved by ``normal(0.0, spread * side)`` drawn as ``z``."""
    x, y, w, h = box
    x1, y1 = x + (0.0 + spread * w * z[0]), y + (0.0 + spread * h * z[1])
    x2, y2 = x + w + (0.0 + spread * w * z[2]), y + h + (0.0 + spread * h * z[3])
    return min(x1, x2), min(y1, y2), max(abs(x2 - x1), 1.0), max(abs(y2 - y1), 1.0)


def generate(annotations: Annotations | Iterable[Annotation], params: SynthParams,
             image_ids: list[str], image_size: tuple[float, float] = (1280.0, 720.0)) -> Detections:
    """Emulate detector output on each of ``image_ids``, once, in sorted order,
    from ground truth as columns (or records converted on entry).

    Per person, in input order within an image: dropped with probability
    ``fn_rate``, otherwise emitted with corner jitter and a true-positive
    score; an extra, more displaced duplicate follows with probability
    ``duplicate_rate``. Per image (including empty frames), a Poisson number
    of false positives is placed uniformly at random with the false-positive
    score model, redrawn in the vanishingly unlikely event one coincides
    exactly with a ground-truth box. Ground truth on other images is
    ignored. The rows are checked as columns; a refused one is named. Calls
    per person: the miss test, ``standard_normal(5)`` for the four corner
    jitters and the score (one normal without jitter), the duplicate test,
    five normals per duplicate; per false-positive try ``random(4)`` for its
    box, then one normal for its score.
    """
    width, height = _image_size(image_size)
    if params.fp_per_image > 0 and width < 100.0:
        raise InvalidInputError(f"false positives are 25 px to a quarter of the image wide: "
                                f"width must be >= 100, got {width}")
    tp_mean, fp_mean, score_std = params.score_model
    rng = np.random.default_rng(params.seed)
    random, standard_normal, poisson = rng.random, rng.standard_normal, rng.poisson

    def score(mean: float, z: float) -> float:  # normal(mean, score_std), clamped to [0, 1]
        return min(max(mean + score_std * z, 0.0), 1.0)
    gts = annotations if isinstance(annotations, Annotations) \
        else Annotations.from_records(annotations)
    gts = gts.grouped(gts.ids)
    boxes = list(map(tuple, gts.boxes.tolist()))
    bounds = np.searchsorted(gts.image, np.arange(len(gts.ids) + 1)).tolist()
    gts_by_image = {key: boxes[a:b] for key, a, b in zip(gts.ids, bounds, bounds[1:])}
    owners, out, scores = [], [], []
    for image_id in sorted(set(image_ids)):
        anns = gts_by_image.get(image_id, [])
        gt_boxes, first = set(anns), len(scores)
        for box in anns:
            if random() < params.fn_rate:
                continue
            z = standard_normal(5).tolist() if params.jitter_std > 0 else [standard_normal()]
            out.append(_jittered(box, params.jitter_std, z) if params.jitter_std > 0 else box)
            scores.append(score(tp_mean, z[-1]))
            if random() < params.duplicate_rate:
                z = standard_normal(5).tolist()
                out.append(_jittered(box, params.duplicate_jitter_std, z))
                scores.append(score(tp_mean, z[4]))
        for _ in range(poisson(params.fp_per_image)):
            while True:
                u_w, u_ratio, u_x, u_y = random(4).tolist()
                w = 25.0 + (0.25 * width - 25.0) * u_w
                h = min(w * (1.2 + (2.6 - 1.2) * u_ratio), height)
                x, y = 0.0 + (width - w) * u_x, 0.0 + (height - h) * u_y
                if (x, y, w, h) not in gt_boxes:
                    break
            out.append((x, y, w, h))
            scores.append(score(fp_mean, standard_normal()))
        owners.extend([image_id] * (len(scores) - first))
    detections = Detections.build(owners, out, scores, [None] * len(scores), [None] * len(scores))
    if not detections.valid():
        detections.records()  # raises, naming the first refused row
    return detections
