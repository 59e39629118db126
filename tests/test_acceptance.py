"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines; every tolerance is pinned here.
"""

import math
import time
from dataclasses import replace

import numpy as np

from conftest import gt_to_region, match, on_records
from radiofusion import fileio, metrics, nms
from radiofusion.config import RunConfig, RunPaths
from radiofusion.imaging import CameraModel, RadioRegion, project
from radiofusion.nms import NmsConfig
from radiofusion.pipeline import build_detections, evaluate, run
from radiofusion.radio import (
    ArrayGeometry,
    RadioEstimate,
    compute_spectrum,
    default_aoa_grid,
    default_tof_grid,
    pick_peaks,
    synthesize_csi,
)
from radiofusion.sim_regions import Annotation, NoiseParams, build_simulative_set, \
    draw_region_noise
from radiofusion.synth import make_world
from radiofusion.world import Annotations, Detection

coco_map, mr_fppi, visual_metrics = map(on_records, (
    metrics.coco_map, metrics.mr_fppi, metrics.visual_metrics))
standard_nms, associate_regions, constrained_nms = map(on_records, (
    nms.standard_nms, nms.associate_regions, nms.constrained_nms))


def report(number, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number} ({name}): {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def det(x, y, w, h, score, image_id="i", region_id=None):
    return Detection(image_id=image_id, bbox=(float(x), float(y), float(w), float(h)),
                     score=score, region_id=region_id)


def gt(x, y, w, h, image_id="i"):
    return Annotation(image_id=image_id, bbox=(float(x), float(y), float(w), float(h)))


def test_criterion_1_matched_filter_recovery():
    geometry = ArrayGeometry(num_antennas=8, element_spacing=0.0258,
                             num_subcarriers=32, base_frequency=5.8e9,
                             frequency_interval=312.5e3)
    aoa_grid = default_aoa_grid(1.0)      # 181 angles
    tof_grid = default_tof_grid(geometry, 64)
    rng = np.random.default_rng(2024)

    start = time.perf_counter()
    exact = 0
    within_one = 0
    trials = 50
    for trial in range(trials):
        ai = int(rng.integers(0, aoa_grid.size))
        tj = int(rng.integers(0, tof_grid.size))
        target = (float(aoa_grid[ai]), float(tof_grid[tj]), 1.0)

        clean = synthesize_csi([target], geometry, noise_std=0.0)
        peak = pick_peaks(compute_spectrum(clean, aoa_grid, tof_grid), 0.5)[0]
        pi = int(np.argmin(np.abs(aoa_grid - peak[0])))
        pj = int(np.argmin(np.abs(tof_grid - peak[1])))
        exact += (pi, pj) == (ai, tj)

        # Unit amplitude with complex noise std 0.1 is a 20 dB SNR frame.
        noisy = synthesize_csi([target], geometry, noise_std=0.1, seed=trial)
        peak = pick_peaks(compute_spectrum(noisy, aoa_grid, tof_grid), 0.5)[0]
        pi = int(np.argmin(np.abs(aoa_grid - peak[0])))
        pj = int(np.argmin(np.abs(tof_grid - peak[1])))
        within_one += abs(pi - ai) <= 1 and abs(pj - tj) <= 1

    elapsed = time.perf_counter() - start
    ok = exact == trials and within_one >= 0.95 * trials and elapsed < 30.0
    report(1, "matched-filter recovery", ok,
           f"{exact}/{trials} exact noiseless, {within_one}/{trials} within 1 bin "
           f"at 20 dB, {elapsed:.1f}s (limit 30s)")


def test_criterion_2_noise_calibration():
    n = 100_000
    failures = []
    for sigma in (0.1, 0.3, 0.5):
        for k in (0.05, 0.2):
            noise = NoiseParams(sigma=sigma, k1=k, k2=k, seed=0)
            rng = np.random.default_rng(1000 * int(sigma * 10) + int(k * 100))
            draw = draw_region_noise(noise, np.full(n, 100.0), rng)
            scale = draw.scale
            dx = draw.dx / draw.edge
            dy = draw.dy / draw.edge
            floor_ok = bool((draw.edge >= 0.05 * 100.0).all())
            se_mean = sigma / math.sqrt(n)
            se_std = sigma / math.sqrt(2 * n)
            checks = [
                abs(scale.mean() - 1.0) <= 3 * se_mean,
                abs(scale.std(ddof=1) - sigma) <= 3 * se_std,
                abs(dx.mean()) <= 3 * k / math.sqrt(n),
                abs(dx.std(ddof=1) - k) <= 3 * k / math.sqrt(2 * n),
                abs(dy.mean()) <= 3 * k / math.sqrt(n),
                abs(dy.std(ddof=1) - k) <= 3 * k / math.sqrt(2 * n),
                floor_ok,
            ]
            if not all(checks):
                failures.append((sigma, k, checks))
    report(2, "noise calibration", not failures,
           f"moments within 3 standard errors at n={n} for sigma in "
           f"{{0.1, 0.3, 0.5}} x k in {{0.05, 0.2}}"
           + (f"; failures: {failures}" if failures else ""))


def _brute_force_nms(detections, threshold):
    def ref_iou(a, b):
        ax, ay, aw, ah = a
        bx, by, bw, bh = b
        iw = min(ax + aw, bx + bw) - max(ax, bx)
        ih = min(ay + ah, by + bh) - max(ay, by)
        inter = iw * ih if iw > 0 and ih > 0 else 0.0
        union = aw * ah + bw * bh - inter
        return inter / union if union > 0 else 0.0

    remaining = sorted(range(len(detections)),
                       key=lambda i: (-detections[i].score, i))
    kept = []
    while remaining:
        best = remaining.pop(0)
        kept.append(detections[best])
        remaining = [i for i in remaining
                     if ref_iou(detections[i].bbox, detections[best].bbox) < threshold]
    return kept


def test_criterion_3_nms_oracle_equivalence():
    rng = np.random.default_rng(555)
    threshold = 0.5
    unconstrained_cfg = NmsConfig(iou_threshold=threshold, mode="one_stage",
                                  enable_fallback_loop=False)
    fallback_cfg = NmsConfig(iou_threshold=threshold, mode="two_stage",
                             enable_fallback_loop=True)
    mismatches = 0
    violations = 0
    scenes = 1000
    for _ in range(scenes):
        scene = [det(rng.uniform(0, 80), rng.uniform(0, 80), rng.uniform(5, 40),
                     rng.uniform(5, 40), float(rng.uniform(0, 1)))
                 for _ in range(10)]
        if constrained_nms(scene, None, unconstrained_cfg) != \
                _brute_force_nms(scene, threshold):
            mismatches += 1

        regions = [RadioRegion(center_x=float(rng.uniform(10, 90)),
                               center_y=float(rng.uniform(10, 90)),
                               edge=float(rng.uniform(10, 40)),
                               identifier=f"r{k}") for k in range(3)]
        kept = constrained_nms(associate_regions(scene, regions),
                               regions, unconstrained_cfg)
        ids = [d.region_id for d in kept]
        pairwise_ok = all(
            standard_nms([kept[a], kept[b]], threshold) == [kept[a], kept[b]]
            for a in range(len(kept)) for b in range(a + 1, len(kept))
        )
        if not (len(kept) <= len(regions) and len(set(ids)) == len(ids)
                and pairwise_ok):
            violations += 1

        tagged = [replace(d, region_id=f"r{rng.integers(0, 3)}") for d in scene]
        covered = constrained_nms(tagged, regions, fallback_cfg)
        if sorted(d.region_id for d in covered) != sorted(r.identifier for r in regions):
            violations += 1

    ok = mismatches == 0 and violations == 0
    report(3, "NMS oracle equivalence", ok,
           f"{scenes} scenes: {mismatches} reference mismatches, "
           f"{violations} constraint violations")


def test_criterion_4_metric_correctness():
    scenes = 0

    # Scene 1: two extra boxes on one detected person (1 TP + 2 FP).
    gts = [gt(0, 0, 10, 20)]
    dets = [det(0, 0, 10, 20, 0.9), det(0, 1, 10, 20, 0.8), det(1, 0, 10, 20, 0.7)]
    assert visual_metrics(dets, gts, 0.5) == (2.0, 1.0 / 3.0)
    scenes += 1

    # Scene 2: one missed person.
    gts = [gt(0, 0, 10, 20), gt(100, 0, 10, 20)]
    assert visual_metrics([det(0, 0, 10, 20, 0.9)], gts, 0.5) == (1.0, 0.5)
    scenes += 1

    # Scene 3: one extra box (1 TP + 1 FP).
    gts = [gt(0, 0, 10, 20)]
    assert visual_metrics([det(0, 0, 10, 20, 0.9), det(0, 1, 10, 20, 0.8)],
                          gts, 0.5) == (1.0, 0.5)
    scenes += 1

    # Scene 4: perfect two-person frame.
    gts = [gt(0, 0, 10, 20), gt(100, 0, 10, 20)]
    dets = [det(0, 0, 10, 20, 0.9), det(100, 0, 10, 20, 0.8)]
    assert visual_metrics(dets, gts, 0.5) == (0.0, 1.0)
    scenes += 1

    # Scene 5: empty frames count as perfect.
    assert visual_metrics([], [], 0.5, image_ids=["a", "b"]) == (0.0, 1.0)
    scenes += 1

    # Scene 6: single detection at IoU exactly 0.6 gives mAP 0.3.
    result = coco_map([det(0, 0, 10, 6, 0.9)], [gt(0, 0, 10, 10)])
    assert result.ap50 == 1.0 and result.ap75 == 0.0 and result.ap == 0.3
    scenes += 1

    # Scene 7: duplicate detection penalized by one-to-one matching.
    outcome = match([det(0, 0, 10, 10, 0.9), det(0, 0, 10, 10, 0.8)],
                    [gt(0, 0, 10, 10)], 0.5)
    assert outcome.tp == (True, False) and outcome.fn == 0
    scenes += 1

    # Scene 8: everything found, AP is exactly 1.
    gts = [gt(0, 0, 10, 10, image_id=f"i{k}") for k in range(4)]
    dets = [det(0, 0, 10, 10, 0.9 - 0.1 * k, image_id=f"i{k}") for k in range(4)]
    assert coco_map(dets, gts).ap == 1.0
    scenes += 1

    # Scene 9: silent detector, AP 0 and log-average miss rate 1.
    gts = [gt(0, 0, 10, 10, image_id=f"i{k}") for k in range(4)]
    assert coco_map([], gts).ap == 0.0
    curve, lamr = mr_fppi([], gts, 0.5)
    assert curve == [(0.0, 1.0)] and lamr == 1.0
    scenes += 1

    # Scene 10: ten-image toy set with planted FPs; hand-computed curve.
    gts = [gt(0, 0, 10, 10, image_id=f"img{k}") for k in range(10)]
    dets = [det(0, 0, 10, 10, s, image_id=f"img{k}")
            for k, s in enumerate([0.95, 0.90, 0.85, 0.80, 0.75, 0.70, 0.65, 0.60])]
    dets += [det(50, 50, 10, 10, 0.99, image_id="img0"),
             det(50, 50, 10, 10, 0.72, image_id="img1"),
             det(50, 50, 10, 10, 0.55, image_id="img2")]
    curve, lamr = mr_fppi(dets, gts, 0.5)
    assert curve == [
        (0.0, 1.0), (0.1, 1.0), (0.1, 0.9), (0.1, 0.8), (0.1, 0.7), (0.1, 0.6),
        (0.1, 0.5), (0.2, 0.5), (0.2, 0.4), (0.2, 0.3), (0.2, 0.2), (0.3, 0.2),
    ]
    assert lamr == (4 * 1.0 + 2 * 0.5 + 3 * 0.2) / 9
    scenes += 1

    # Scene 11: size buckets with cross-bucket detections ignored.
    gts = [gt(0, 0, 10, 10), gt(300, 300, 200, 200)]
    dets = [det(0, 0, 10, 10, 0.9), det(300, 300, 200, 200, 0.8)]
    result = coco_map(dets, gts)
    assert (result.ap_s, result.ap_m, result.ap_l) == (1.0, 0.0, 1.0)
    scenes += 1

    # Scene 12: crossing detections still yield the optimal matching.
    gts = [gt(0, 0, 10, 10), gt(8, 0, 10, 10)]
    outcome = match([det(8, 0, 10, 10, 0.9), det(0, 0, 10, 10, 0.8)], gts, 0.5)
    assert outcome.tp == (True, True) and outcome.fn == 0
    scenes += 1

    report(4, "metric correctness", scenes >= 10,
           f"{scenes} constructed scenes matched hand-computed values exactly")


def test_criterion_5_directional_trend(tmp_path):
    start = time.perf_counter()
    config = RunConfig(seed=1234)
    image_ids, records = make_world(500, seed=config.substream_seed("world"))
    gts = Annotations.from_records(records)
    detections = build_detections(config, gts, image_ids)

    noise = replace(config.noise, seed=config.substream_seed("regions"))
    regions = build_simulative_set(records, noise)
    base, _ = evaluate(replace(config, method="baseline"),
                       image_ids, gts, detections, regions)
    fused, _ = evaluate(replace(config, method="method1+cnms"),
                        image_ids, gts, detections, regions)

    zero_noise = replace(config.noise, sigma=0.0, k1=0.0, k2=0.0,
                         seed=config.substream_seed("regions"))
    exact_regions = build_simulative_set(records, zero_noise)
    proposals, _ = evaluate(replace(config, method="method2+cnms"),
                            image_ids, gts, detections, exact_regions)

    elapsed = time.perf_counter() - start
    reduction = 1.0 - fused.fp_fn_per_image / base.fp_fn_per_image
    ok = (
        reduction >= 0.20
        and fused.true_detection_ratio > base.true_detection_ratio
        and proposals.true_detection_ratio >= 0.95
        and elapsed < 60.0
    )
    report(5, "directional trend", ok,
           f"FP&FN/image {base.fp_fn_per_image:.3f} -> {fused.fp_fn_per_image:.3f} "
           f"({reduction:.0%} reduction, need >=20%), ratio "
           f"{base.true_detection_ratio:.3f} -> {fused.true_detection_ratio:.3f}, "
           f"zero-noise proposals ratio {proposals.true_detection_ratio:.3f} "
           f"(need >=0.95), {elapsed:.1f}s (limit 60s)")


def test_criterion_6_error_sensitivity_shape():
    config = RunConfig(seed=1234, method="method2")
    image_ids, records = make_world(500, seed=config.substream_seed("world"))
    gts = Annotations.from_records(records)
    detections = build_detections(config, gts, image_ids)
    values = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5]

    def ap_for(sigma, k1, k2):
        noise = NoiseParams(sigma=sigma, k1=k1, k2=k2,
                            seed=config.substream_seed("regions"))
        regions = build_simulative_set(records, noise)
        result, _ = evaluate(config, image_ids, gts, detections, regions)
        return result.ap

    shift_aps = [ap_for(0.2, v, v) for v in values]    # center error sweep
    scale_aps = [ap_for(v, 0.1, 0.1) for v in values]  # size error sweep

    monotone = all(a >= b - 1e-12 for a, b in zip(shift_aps, shift_aps[1:]))
    shift_drop = shift_aps[0] - shift_aps[-1]
    scale_drop = scale_aps[0] - scale_aps[-1]
    ok = monotone and shift_drop > scale_drop
    report(6, "error-sensitivity shape", ok,
           f"AP over k sweep {['%.3f' % a for a in shift_aps]} monotone={monotone}; "
           f"drop {shift_drop:.3f} from center error vs {scale_drop:.3f} from "
           f"size error")


def test_criterion_7_identity_invariants(tmp_path):
    # lambda = 0 leaves the pipeline bit-identical to the baseline.
    config = RunConfig(seed=31)
    image_ids, gts = make_world(100, seed=config.substream_seed("world"))
    ann_path = tmp_path / "annotations.json"
    fileio.write_annotations(ann_path, image_ids, gts, image_size=config.image_size)
    config = replace(config, paths=RunPaths(annotations=str(ann_path),
                                            output_dir=str(tmp_path / "a")))
    run(replace(config, method="baseline"))
    run(replace(config, method="method1", lam=0.0))
    identical = (
        (tmp_path / "a" / "detections_baseline.json").read_bytes()
        == (tmp_path / "a" / "detections_method1.json").read_bytes()
    )

    # Zero-noise regions are exactly the centered min-side squares.
    rng = np.random.default_rng(0)
    zero = NoiseParams(sigma=0.0, k1=0.0, k2=0.0)
    squares_ok = True
    for ann in gts:
        region = gt_to_region(ann, zero, rng)
        x, y, w, h = ann.bbox
        squares_ok &= (region.center_x == x + w / 2 and region.center_y == y + h / 2
                       and region.edge == min(w, h))

    # Tangent projection round-trips to 1e-9 degrees.
    camera = CameraModel(focal_length_px=500.0, image_width=1280.0, image_height=720.0)
    angle_rng = np.random.default_rng(77)
    max_error = 0.0
    for _ in range(500):
        aoa_h = 90.0 + float(angle_rng.uniform(-30, 30))
        aoa_v = 90.0 + float(angle_rng.uniform(-24, 24))
        estimate = RadioEstimate(aoa_h=aoa_h, aoa_v=aoa_v, tof=30e-9,
                                 magnitude=1.0, identifier="p")
        region = project(estimate, camera)
        if region is None:
            continue
        back_h = 90.0 + math.degrees(math.atan(
            (region.center_x - camera.image_width / 2) / camera.focal_length_px))
        back_v = 90.0 + math.degrees(math.atan(
            (region.center_y - camera.image_height / 2) / camera.focal_length_px))
        max_error = max(max_error, abs(back_h - aoa_h), abs(back_v - aoa_v))

    ok = identical and squares_ok and max_error < 1e-9
    report(7, "identity invariants", ok,
           f"lambda=0 dump bytes identical={identical}, zero-noise squares "
           f"exact={squares_ok}, projection round-trip max error "
           f"{max_error:.2e} deg (limit 1e-9)")
