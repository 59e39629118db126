"""The detector emulator against its scalar form.

``make_world``, ``generate``, ``_jitter_box`` and ``_clamped_score`` below
are the scalar emulator, one ``rng`` call per drawn value and one
``Detection`` record per row, kept verbatim as the oracle. The library draws
the same stream with fewer calls (whole-image ``random`` draws, box
arithmetic over the whole world, rows gathered as columns), so every image
id, box value and score must be the same float, compared by ``repr`` so that
a sign of zero or a last bit counts.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import group_by_image
from radiofusion import synth
from radiofusion.errors import InvalidInputError
from radiofusion.sim_regions import Annotation
from radiofusion.synth import ASPECT_RANGE, HEIGHT_RANGE, SynthParams
from radiofusion.world import Annotations, Detection, Detections


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


def exact(records):
    """Each record's image id, box values and score (if any), as ``repr``."""
    return [(r.image_id, *map(repr, r.bbox), repr(getattr(r, "score", None))) for r in records]


# Sizes that clamp the height to the frame, the width to the frame (so
# ``width - w == 0``), both, or neither.
SIZES = st.one_of(
    st.sampled_from([(1280.0, 720.0), (640.0, 100.0), (50.0, 720.0), (30.0, 90.0), (1.0, 1.0)]),
    st.tuples(st.floats(0.5, 3000.0), st.floats(0.5, 3000.0)),
)


@settings(max_examples=200, deadline=None)
@given(num_images=st.integers(1, 40), max_people=st.sampled_from([0, 3, 16]) | st.integers(0, 20),
       size=SIZES, seed=st.integers(0, 2**32))
@example(num_images=40, max_people=16, size=(50.0, 100.0), seed=0)
@example(num_images=5, max_people=0, size=(1280.0, 720.0), seed=1)
def test_make_world_equals_the_scalar_oracle(num_images, max_people, size, seed):
    ids, anns = synth.make_world(num_images, image_size=size, max_people=max_people, seed=seed)
    oracle_ids, oracle_anns = make_world(num_images, image_size=size, max_people=max_people,
                                         seed=seed)
    assert ids == oracle_ids
    assert exact(anns) == exact(oracle_anns)
    assert all(type(ann) is Annotation for ann in anns)


POOL = ["a", "b", "c", "d", "e"]
BOXES = st.tuples(st.floats(0.0, 2000.0), st.floats(0.0, 2000.0),
                  st.floats(0.5, 500.0), st.floats(0.5, 500.0))
GTS = st.lists(st.builds(Annotation, st.sampled_from(POOL), BOXES), max_size=25)
RATES = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
PARAMS = st.builds(
    SynthParams,
    jitter_std=st.sampled_from([0.0, 0.05]) | st.floats(0.0, 1.0),
    fp_per_image=st.sampled_from([0.0, 20.0]) | st.floats(0.0, 20.0),
    fn_rate=RATES,
    duplicate_rate=RATES,
    duplicate_jitter_std=st.sampled_from([0.0, 0.35]) | st.floats(0.0, 1.0),
    score_model=st.tuples(st.floats(-1.0, 2.0), st.floats(-1.0, 2.0),
                          st.sampled_from([0.0]) | st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**32),
)


@settings(max_examples=300, deadline=None)
@given(gts=GTS, params=PARAMS, image_ids=st.lists(st.sampled_from(POOL + ["z"]), max_size=10),
       size=st.tuples(st.floats(100.0, 4000.0), st.floats(1.0, 4000.0)))
@example(gts=[Annotation("b", (5.0, 5.0, 20.0, 40.0)), Annotation("a", (0.0, 0.0, 9.0, 9.0)),
              Annotation("b", (5.0, 5.0, 20.0, 40.0)), Annotation("q", (1.0, 1.0, 2.0, 2.0))],
         params=SynthParams(jitter_std=0.0, fp_per_image=20.0, fn_rate=0.0, duplicate_rate=1.0,
                            score_model=(-0.0, 1.0, 0.0), seed=3),
         image_ids=["b", "z", "a", "b"], size=(100.0, 50.0))
@example(gts=[Annotation("a", (0.0, 0.0, 9.0, 9.0))],
         params=SynthParams(fn_rate=1.0, fp_per_image=0.0, seed=1),
         image_ids=["a"], size=(1280.0, 720.0))
def test_generate_equals_the_scalar_oracle(gts, params, image_ids, size):
    oracle = generate(gts, params, image_ids, image_size=size)
    on_records = synth.generate(gts, params, image_ids, image_size=size)
    on_columns = synth.generate(Annotations.from_records(gts), params, image_ids, image_size=size)
    assert isinstance(on_records, Detections) and on_records.valid()
    assert exact(on_records.records()) == exact(on_columns.records()) == exact(oracle)
    assert on_records.ids == on_columns.ids == Detections.from_records(oracle).ids


@settings(max_examples=50, deadline=None)
@given(gts=GTS, params=PARAMS, image_ids=st.lists(st.sampled_from(POOL), max_size=10),
       width=st.floats(0.5, math.nextafter(100.0, 0.0)))
def test_generate_without_false_positives_on_narrow_frames(gts, params, image_ids, width):
    # False positives need a width of 100 (25 px up to a quarter of it);
    # without them any positive size is drawn as the oracle draws it.
    params = replace(params, fp_per_image=0.0)
    oracle = generate(gts, params, image_ids, image_size=(width, 720.0))
    assert exact(synth.generate(gts, params, image_ids, image_size=(width, 720.0)).records()) \
        == exact(oracle)


@pytest.mark.parametrize("num_images, max_people, params", [
    (600, 3, SynthParams(seed=1235)),
    (200, 16, SynthParams(fn_rate=0.0, duplicate_rate=1.0, fp_per_image=5.0, seed=1235)),
], ids=["eval-sparse-world", "dense"])
def test_generate_equals_the_scalar_oracle_on_fixed_worlds(num_images, max_people, params):
    """Thousands of five-normal runs, so the ziggurat's rejection and tail
    branches are drawn too: the generated examples above draw a few hundred
    normals each."""
    ids, gts = synth.make_world(num_images, max_people=max_people, seed=1234)
    detections = synth.generate(gts, params, ids)
    oracle = generate(gts, params, ids)
    assert len(oracle) > 1000
    assert exact(detections.records()) == exact(oracle)
