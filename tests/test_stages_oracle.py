"""World-level stages against the per-image scalar code they replace.

The five stages of ``fusion`` and ``nms`` take a whole world in one call
and batch their IoU arithmetic across images. The functions below are the
per-image scalar versions they replaced, kept verbatim as oracles: one
world-level call must equal the oracle run on every image and joined in
sorted image-id order, exactly (``==`` on every record, every float bit
for bit). The stages take and return ``Detections`` columns, so they are
called on the oracle's records through ``Detections.from_records`` and
compared through ``Detections.records`` (``conftest.on_records``).
``oracle_apply_method`` is the per-image loop the pipeline ran.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import group_by_image, intersect_area, iou, on_records, rect_area, to_bbox
from radiofusion import fusion, nms
from radiofusion.config import METHOD_STEPS, RunConfig
from radiofusion.errors import InvalidInputError
from radiofusion.geometry import Rect
from radiofusion.imaging import RadioRegion
from radiofusion.nms import NmsConfig
from radiofusion.pipeline import apply_method, evaluate
from radiofusion.world import Annotations, Detection, Detections, Regions, score_order


# -- Oracles: the scalar per-image stages, verbatim -------------------------

def standard_nms(detections: list[Detection], iou_threshold: float) -> list[Detection]:
    """Plain greedy suppression: keep a box iff it overlaps every kept box
    below the threshold. Output is in descending-score order."""
    kept: list[Detection] = []
    for i in score_order([det.score for det in detections]):
        candidate = detections[i]
        if all(iou(candidate.bbox, k.bbox) < iou_threshold for k in kept):
            kept.append(candidate)
    return kept


def associate_regions(
    detections: list[Detection],
    regions: list[RadioRegion],
    mode: str = "one_stage",
) -> list[Detection]:
    """Fill in each detection's region id.

    Detections born from region proposals (``two_stage``) know their
    region and keep it; missing provenance there is an input error. Otherwise
    (``one_stage``) the region with the highest positive IoU against the
    detection box wins, ties going to the smaller region id; a detection
    overlapping no region gets none.
    """
    if mode not in ("one_stage", "two_stage"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    if mode == "two_stage":
        for det in detections:
            if det.region_id is None:
                raise InvalidInputError("two_stage association requires region provenance")
        return list(detections)

    associated = []
    for det in detections:
        best_id = None
        best_iou = 0.0
        for region in regions:
            overlap = iou(det.bbox, to_bbox(region))
            if overlap > best_iou or (
                overlap == best_iou and overlap > 0.0
                and best_id is not None and region.identifier < best_id
            ):
                best_id, best_iou = region.identifier, overlap
        associated.append(replace(det, region_id=best_id if best_iou > 0.0 else None))
    return associated


def constrained_nms(
    detections: list[Detection],
    regions: list[RadioRegion] | None,
    cfg: NmsConfig,
    image_id: str | None = None,
) -> list[Detection]:
    """Greedy NMS where each radio region may produce at most one box.

    ``regions=None`` disables the constraint entirely, reducing to
    ``standard_nms``. With ``require_region`` a detection carrying no
    region id (or an id naming no region in the list) is dropped, since the
    radio asserts nobody is there; the permissive setting keeps such
    detections subject only to the overlap test. The fallback pass runs for
    enabled ``two_stage`` configurations and guarantees one detection per
    region.

    ``image_id`` labels fallback anchor boxes for images that produced no
    detections at all; it defaults to the first detection's image id.
    """
    if regions is None:
        return standard_nms(detections, cfg.iou_threshold)

    known = {region.identifier for region in regions}
    used: set[str] = set()
    kept: list[Detection] = []
    kept_idx: set[int] = set()
    for i in score_order([det.score for det in detections]):
        candidate = detections[i]
        if any(iou(candidate.bbox, k.bbox) >= cfg.iou_threshold for k in kept):
            continue
        # An id that names no region in this image constrains nothing.
        rid = candidate.region_id if candidate.region_id in known else None
        if rid is not None and rid in used:
            continue
        if rid is None and cfg.require_region:
            continue
        kept.append(candidate)
        kept_idx.add(i)
        if rid is not None:
            used.add(rid)

    if cfg.mode == "two_stage" and cfg.enable_fallback_loop:
        if image_id is None:
            image_id = detections[0].image_id if detections else ""
        for region in regions:
            if region.identifier in used:
                continue
            candidates = [
                i for i, det in enumerate(detections)
                if i not in kept_idx and det.region_id == region.identifier
            ]
            if candidates:
                best = max(candidates, key=lambda i: (detections[i].score, -i))
                kept.append(detections[best])
            else:
                kept.append(
                    Detection(
                        image_id=image_id,
                        bbox=to_bbox(region),
                        score=cfg.fallback_floor_score,
                        region_id=region.identifier,
                    )
                )
            used.add(region.identifier)
    return kept


def decay_one_stage(region: RadioRegion, cell: Rect) -> float:
    """Overlap of the region with a backbone grid cell, normalized by the cell."""
    cell_area = rect_area(cell)
    if cell_area <= 0:
        raise InvalidInputError(f"degenerate cell {cell}")
    return min(intersect_area(to_bbox(region), cell) / cell_area, 1.0)


def decay_two_stage(bbox: Rect, region: RadioRegion) -> float:
    """Overlap of a detection box with the region, normalized by the region."""
    region_area = rect_area(to_bbox(region))
    if region_area <= 0:
        raise InvalidInputError(f"degenerate region {region}")
    return min(intersect_area(bbox, to_bbox(region)) / region_area, 1.0)


def revise_score(score: float, gamma: float, lam: float) -> float:
    """Rescale a confidence score by the radio decay factor.

    ``lam = 0`` leaves the detector untouched; ``lam = 1`` multiplies the
    score by ``gamma`` directly. The result never exceeds the input score.
    """
    for name, value in (("score", score), ("gamma", gamma), ("lam", lam)):
        if not 0.0 <= value <= 1.0:
            raise InvalidInputError(f"{name}={value} outside [0, 1]")
    return (1.0 - lam + lam * gamma) * score


def revise_detections(
    detections: list[Detection],
    regions: list[RadioRegion],
    lam: float,
    mode: str = "two_stage",
) -> list[Detection]:
    """Apply confidence revision against a set of regions.

    Each detection takes the most favorable decay factor over all regions
    (0 when there are none, so a detection covered by no region decays to
    ``(1 - lam) * score``). Input order is preserved; inputs are not
    mutated. One-stage mode requires every detection to carry its backbone
    cell rectangle.
    """
    if mode not in ("one_stage", "two_stage"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    revised = []
    for det in detections:
        if mode == "one_stage":
            if det.cell is None:
                raise InvalidInputError("one_stage revision requires a cell on every detection")
            gammas = (decay_one_stage(region, det.cell) for region in regions)
        else:
            gammas = (decay_two_stage(det.bbox, region) for region in regions)
        gamma = max(gammas, default=0.0)
        revised.append(replace(det, score=revise_score(det.score, gamma, lam)))
    return revised


def generate_proposals(
    region: RadioRegion,
    scales: list[float],
    ratios: list[float],
) -> list[Rect]:
    """Expand a region into one anchor box per (scale, ratio), scale-major.

    Every anchor is centered on the region, has area ``(scale * edge)^2``
    and height/width ratio ``ratio``.
    """
    if not scales or not ratios:
        raise InvalidInputError("scales and ratios must be non-empty")
    if any(s <= 0 for s in scales) or any(r <= 0 for r in ratios):
        raise InvalidInputError("scales and ratios must be positive")
    boxes = []
    for scale in scales:
        side = scale * region.edge
        for ratio in ratios:
            w = side / math.sqrt(ratio)
            h = side * math.sqrt(ratio)
            boxes.append((region.center_x - w / 2.0, region.center_y - h / 2.0, w, h))
    return boxes


ANCHOR_SCALES = (0.75, 1.0, 1.25)
ANCHOR_RATIOS = (1.0, 2.0, 3.0)


def proposals_to_detections(regions: list[RadioRegion], image_id: str) -> list[Detection]:
    """Emulate the proposal classification head for one image.

    With no trained head available, each anchor becomes a detection whose
    score is its region-normalized overlap with the region it was built
    from, which favors anchors that stay inside the localization. The
    region identifier rides along so the detections can be suppressed per
    region downstream.
    """
    return [
        Detection(image_id=image_id, bbox=bbox, score=decay_two_stage(bbox, region),
                  region_id=region.identifier)
        for region in regions
        for bbox in generate_proposals(region, ANCHOR_SCALES, ANCHOR_RATIOS)
    ]


def oracle_apply_method(
    config: RunConfig,
    image_ids: list[str],
    detections: list[Detection],
    regions_by_image: dict[str, list[RadioRegion]],
) -> list[Detection]:
    """Run the configured method image by image; returns the full output."""
    source, cnms = METHOD_STEPS[config.method]
    nms_cfg = replace(config.nms, mode=cnms) if cnms else config.nms
    dets_by_image = group_by_image(detections)
    output: list[Detection] = []
    for image_id in sorted(set(image_ids)):
        dets = dets_by_image.get(image_id, [])
        regions = regions_by_image.get(image_id, [])
        if source == "revised":
            dets = revise_detections(dets, regions, config.lam, mode=config.mode)
        elif source == "proposals":
            dets = proposals_to_detections(regions, image_id)
        if cnms is None:
            output.extend(standard_nms(dets, nms_cfg.iou_threshold))
        else:
            dets = associate_regions(dets, regions, mode=cnms)
            output.extend(constrained_nms(dets, regions, nms_cfg, image_id=image_id))
    return output


# -- Random worlds -----------------------------------------------------------

IMAGES = ("a", "b", "c", "d")
REGION_IDS = ("r0", "r1", "r2")

_coord = st.integers(0, 40).map(float) | st.floats(-20.0, 80.0)
_side = st.sampled_from([0.0, 5.0, 10.0, 20.0]) | st.floats(0.0, 40.0)
_score = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)  # ties
_cell = st.tuples(_coord, _coord, st.sampled_from([0.0, 8.0]) | st.floats(1.0, 30.0),
                  st.floats(1.0, 30.0))
_threshold = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def worlds(draw):
    """Detections and flat regions with the image of each, in shuffled order.

    Images may hold nothing, only detections or only regions. Detections
    carry no region id, an id unknown everywhere, or an id of some image's
    region; some are exact duplicates (same box, same score) of others.
    Region ids repeat across images and, now and then, within one.
    """
    regions, owners = [], []
    for image in IMAGES:
        for rid in draw(st.lists(st.sampled_from(REGION_IDS), max_size=4)):
            regions.append(RadioRegion(center_x=draw(_coord), center_y=draw(_coord),
                                       edge=draw(st.integers(1, 30).map(float)
                                                 | st.floats(0.5, 40.0)),
                                       identifier=rid))
            owners.append(image)
    detections = draw(st.lists(st.builds(
        Detection, image_id=st.sampled_from(IMAGES),
        bbox=st.tuples(_coord, _coord, _side, _side), score=_score,
        region_id=st.sampled_from([None, "unknown", *REGION_IDS]),
        cell=st.none() | _cell), max_size=14))
    if detections:
        detections += draw(st.lists(st.sampled_from(detections), max_size=3))
    detections = draw(st.permutations(detections))
    order = draw(st.permutations(range(len(regions))))
    return detections, [regions[i] for i in order], [owners[i] for i in order]


def per_image(detections, regions, owners):
    """(image id, its detections, its regions) in sorted image-id order."""
    dets = group_by_image(detections)
    keys = sorted(set(dets) | set(owners))
    return [(key, dets.get(key, []),
             [region for region, owner in zip(regions, owners) if owner == key])
            for key in keys]


def columns(regions, owners):
    """The world's regions as ``Regions`` columns, rows in the given order."""
    return Regions.build(owners, *zip(*[(r.center_x, r.center_y, r.edge, r.identifier)
                                        for r in regions]) if regions else [[]] * 4)


def outcome(call):
    """The result of ``call()``, or the input error it raised."""
    try:
        return call()
    except InvalidInputError:
        return InvalidInputError


def joined(call, images):
    """Oracle outputs of every image joined, or the input error one raised."""
    def run():
        return [det for image in images for det in call(*image)]
    return outcome(run)


_cnms_configs = st.builds(NmsConfig, iou_threshold=_threshold,
                          mode=st.sampled_from(("one_stage", "two_stage")),
                          enable_fallback_loop=st.booleans(), require_region=st.booleans(),
                          fallback_floor_score=_score)


# -- World call == per-image oracles -----------------------------------------

def check_world(world, cfg, lam, mode):
    """Each stage's world-level call against its per-image oracles."""
    detections, regions, owners = world
    images = per_image(detections, regions, owners)
    regs = columns(regions, owners)
    threshold = cfg.iou_threshold
    assert on_records(nms.standard_nms)(detections, threshold) == joined(
        lambda _, dets, __: standard_nms(dets, threshold), per_image(detections, [], []))
    assert outcome(lambda: on_records(nms.associate_regions)(
        detections, regs, mode)) == joined(
        lambda _, dets, regs: associate_regions(dets, regs, mode), images)
    assert outcome(lambda: on_records(nms.constrained_nms)(
        detections, regs, cfg)) == joined(
        lambda key, dets, regs: constrained_nms(dets, regs, cfg, image_id=key), images)
    assert outcome(lambda: on_records(fusion.revise_detections)(
        detections, regs, lam, mode)) == joined(
        lambda _, dets, regs: revise_detections(dets, regs, lam, mode), images)
    assert fusion.proposals_to_detections(regs).records() == joined(
        lambda key, _, regs: proposals_to_detections(regs, key), per_image([], regions, owners))


@settings(max_examples=250, deadline=None)
@given(worlds(), _cnms_configs, _score, st.sampled_from(("one_stage", "two_stage")))
def test_world_calls_equal_the_per_image_oracles(world, cfg, lam, mode):
    check_world(world, cfg, lam, mode)


def test_fixed_world_covers_every_case():
    """One world holding every case, at thresholds 0, 0.5 and 1 and every
    mode, fallback and require_region setting."""

    def det(image, x, score, region_id=None, cell=(0.0, 0.0, 10.0, 10.0)):
        return Detection(image_id=image, bbox=(x, 0.0, 10.0, 10.0), score=score,
                         region_id=region_id, cell=cell)

    def region(x, rid, edge=10.0):
        return RadioRegion(center_x=x + 5.0, center_y=5.0, edge=edge, identifier=rid)

    detections = [
        det("a", 0.0, 0.9, "r0"), det("a", 0.0, 0.9, "r0"),  # duplicate box, tied score
        det("a", 2.0, 0.9, "r1"), det("a", 30.0, 0.5, None),  # no region id
        det("a", 31.0, 0.5, "unknown"), det("a", 60.0, 0.4, "r2"),  # id of another image
        det("b", 0.0, 0.7, None, cell=(0.0, 0.0, 20.0, 20.0)),  # image without regions
        det("a", 100.0, 0.3, "r0", cell=(95.0, 0.0, 10.0, 10.0)),
        # r3's two candidates tie on score and both lose to r4's box: the
        # fallback revives the first.
        det("e", 50.0, 0.9, "r4"), det("e", 52.0, 0.5, "r3"), det("e", 51.0, 0.5, "r3"),
    ]
    regions = [region(0.0, "r1"), region(0.0, "r0"), region(200.0, "r1", 20.0),
               region(50.0, "r2"), region(5.0, "r0"), region(51.0, "r3"), region(50.0, "r4")]
    owners = ["a", "a", "c", "d", "a", "e", "e"]  # c and d: regions but no detections
    for threshold in (0.0, 0.5, 1.0):
        for mode in ("one_stage", "two_stage"):
            for fallback in (False, True):
                for require in (False, True):
                    cfg = NmsConfig(iou_threshold=threshold, mode=mode,
                                    enable_fallback_loop=fallback, require_region=require)
                    check_world((detections, regions, owners), cfg, 0.5, mode)
    associated = on_records(nms.associate_regions)(detections, columns(regions, owners))
    assert [d.region_id for d in associated[:3]] == ["r0", "r0", "r0"]  # tie: smaller id


@settings(max_examples=100, deadline=None)
@given(worlds(), st.sampled_from(tuple(METHOD_STEPS)), _cnms_configs, _score,
       st.sets(st.sampled_from(IMAGES)))
def test_apply_method_equals_the_per_image_loop(world, method, cfg, lam, listed):
    """The pipeline's world-level calls give the old per-image loop's output
    on a universe that holds every row, including listed images that hold
    nothing."""
    detections, regions, owners = world
    if METHOD_STEPS[method][0] == "revised":
        detections = [replace(det, cell=det.cell or (0.0, 0.0, 10.0, 10.0))
                      for det in detections]
    by_image: dict[str, list[RadioRegion]] = {}
    for region, owner in zip(regions, owners):
        by_image.setdefault(owner, []).append(region)
    config = replace(RunConfig(), method=method, nms=cfg, lam=lam)
    image_ids = sorted(listed.union(owners, (det.image_id for det in detections))) + ["empty"]
    dets, regs = Detections.from_records(detections), columns(regions, owners)
    assert outcome(lambda: apply_method(config, image_ids, dets, regs).records()) == (
        outcome(lambda: oracle_apply_method(config, image_ids, detections, by_image)))


@pytest.mark.parametrize("method", tuple(METHOD_STEPS))
@pytest.mark.parametrize("stray", ["detections", "regions"])
def test_apply_method_refuses_rows_off_the_image_list(method, stray):
    """A detection or a region on an image outside the list is an input
    error, with the message ``evaluate`` gives for it."""
    on = {"detections": "a", "regions": "a", stray: "z"}
    dets = Detections.from_records([Detection(on["detections"], (0.0, 0.0, 10.0, 10.0), 0.9,
                                              cell=(0.0, 0.0, 10.0, 10.0))])
    regs = columns([RadioRegion(5.0, 5.0, 10.0, "r0")], [on["regions"]])
    config = replace(RunConfig(), method=method)
    with pytest.raises(InvalidInputError) as refused:
        apply_method(config, ["a"], dets, regs)
    assert str(refused.value) == f"{stray} on images outside the image list: ['z']"
    with pytest.raises(InvalidInputError) as evaluated:
        evaluate(config, ["a"], Annotations.from_records([]), dets, regs)
    assert str(evaluated.value) == str(refused.value)


# -- Constrained NMS: which images the fallback pass visits --------------------

def test_constrained_nms_fallback_cases_equal_the_per_image_oracle():
    """One two-stage world: "a" has every region claimed, "b" a region left
    empty with suppressed candidates, "c" one left empty with none (its
    square at the floor score), "d" a repeated region id and "e" regions but
    no detections. Only "b" to "e" need the fallback pass."""

    def det(image, x, score, region_id):
        return Detection(image_id=image, bbox=(x, 0.0, 10.0, 10.0), score=score,
                         region_id=region_id)

    def region(x, rid):
        return RadioRegion(center_x=x + 5.0, center_y=5.0, edge=10.0, identifier=rid)

    detections = [
        det("a", 0.0, 0.9, "r0"), det("a", 50.0, 0.8, "r1"), det("a", 1.0, 0.7, "r0"),
        # b: r1's two candidates lose to r0's box at threshold 0.5; the better one is revived.
        det("b", 0.0, 0.9, "r0"), det("b", 1.0, 0.4, "r1"), det("b", 2.0, 0.6, "r1"),
        det("c", 0.0, 0.9, "r0"),  # c: r1 has no candidate
        det("d", 0.0, 0.9, "r0"), det("d", 1.0, 0.5, "r1"),
    ]
    regions = [region(0.0, "r0"), region(50.0, "r1"), region(0.0, "r0"), region(2.0, "r1"),
               region(0.0, "r0"), region(80.0, "r1"), region(0.0, "r0"), region(1.0, "r1"),
               region(1.0, "r1"), region(0.0, "r0"), region(30.0, "r1")]
    owners = ["a", "a", "b", "b", "c", "c", "d", "d", "d", "e", "e"]
    regs = columns(regions, owners)
    images = per_image(detections, regions, owners)
    cfg = NmsConfig(iou_threshold=0.5, fallback_floor_score=0.05)
    kept = on_records(nms.constrained_nms)(detections, regs, cfg)
    assert kept == joined(lambda key, dets, regs: constrained_nms(dets, regs, cfg, image_id=key),
                          images)
    assert [(d.image_id, d.region_id, d.score) for d in kept] == [
        ("a", "r0", 0.9), ("a", "r1", 0.8), ("b", "r0", 0.9), ("b", "r1", 0.6),
        ("c", "r0", 0.9), ("c", "r1", 0.05), ("d", "r0", 0.9), ("d", "r1", 0.5),
        ("e", "r0", 0.05), ("e", "r1", 0.05)]
    for require in (False, True):
        for fallback in (False, True):
            check_world((detections, regions, owners),
                        replace(cfg, enable_fallback_loop=fallback, require_region=require),
                        0.5, "two_stage")


@st.composite
def claimed_worlds(draw):
    """Worlds whose regions each have detections naming them, apart from
    the other regions' boxes, plus some detections anywhere."""
    detections, regions, owners = [], [], []
    for image in IMAGES:
        for j, rid in enumerate(draw(st.lists(st.sampled_from(REGION_IDS), max_size=3,
                                              unique=True))):
            regions.append(RadioRegion(center_x=100.0 * j + 10.0, center_y=10.0,
                                       edge=draw(st.floats(5.0, 30.0)), identifier=rid))
            owners.append(image)
            detections += [Detection(image_id=image, bbox=(100.0 * j + draw(_coord) / 4,
                                                           draw(_coord) / 4, draw(_side), 20.0),
                                     score=draw(_score), region_id=rid)
                           for _ in range(draw(st.integers(1, 3)))]
    detections += draw(st.lists(st.builds(
        Detection, image_id=st.sampled_from(IMAGES),
        bbox=st.tuples(_coord, _coord, _side, _side), score=_score,
        region_id=st.sampled_from([None, "unknown", *REGION_IDS])), max_size=3))
    return draw(st.permutations(detections)), regions, owners


@settings(max_examples=150, deadline=None)
@given(claimed_worlds(), _threshold, st.booleans(), _score)
def test_the_fallback_adds_nothing_when_pass_one_claims_every_region(world, threshold,
                                                                      require, floor):
    detections, regions, owners = world
    regs = columns(regions, owners)
    cfg = NmsConfig(iou_threshold=threshold, require_region=require, fallback_floor_score=floor)
    bare = on_records(nms.constrained_nms)(detections, regs,
                                           replace(cfg, enable_fallback_loop=False))
    assume({(d.image_id, d.region_id) for d in bare}
           >= {(owner, r.identifier) for r, owner in zip(regions, owners)})
    assert on_records(nms.constrained_nms)(detections, regs, cfg) == bare


# -- Boundary ----------------------------------------------------------------

_DETECTIONS = [Detection(image_id="a", bbox=(6.0, 6.0, 8.0, 8.0), score=0.5, region_id="r0",
                         cell=(0.0, 0.0, 16.0, 16.0))]
_REGION = RadioRegion(center_x=10.0, center_y=10.0, edge=8.0, identifier="r0")


@pytest.mark.parametrize("call", [
    lambda dets, regs: fusion.revise_detections(dets, regs, 0.5),
    lambda dets, regs: fusion.proposals_to_detections(regs),
    lambda dets, regs: nms.associate_regions(dets, regs),
    lambda dets, regs: nms.associate_regions(dets, regs, "two_stage"),
    lambda dets, regs: nms.constrained_nms(dets, regs, NmsConfig()),
], ids=["revise", "proposals", "associate-one-stage", "associate-two-stage", "constrained"])
def test_an_image_the_region_table_names_without_regions_changes_nothing(call):
    """A regions file may list an image with no regions: every stage gives
    the rows it gives without that image in the table."""
    dets = Detections.from_records(_DETECTIONS)
    bare = Regions.from_records({"a": [_REGION]})
    padded = Regions.from_records({"a": [_REGION], "b": [], "0": []})
    assert padded.ids == ("0", "a", "b") and len(padded) == 1
    assert call(dets, padded).records() == call(dets, bare).records()
