"""End-to-end pipeline behavior on synthetic worlds."""

from dataclasses import replace

import numpy as np
import pytest

from radiofusion import fileio
from radiofusion.config import RadioParams, RunConfig, RunPaths
from radiofusion.errors import InvalidInputError
from radiofusion.fusion import Detection
from radiofusion.imaging import CameraModel
from radiofusion.pipeline import load_world, localize_frames, project_estimates, run, sweep
from radiofusion.radio import ArrayGeometry, synthesize_csi, default_tof_grid
from radiofusion.sim_regions import GT_FILTERS
from radiofusion.synth import make_world


def small_world(tmp_path, num_images=120, seed=77):
    config = RunConfig(seed=seed)
    image_ids, gts = make_world(num_images, seed=config.substream_seed("world"))
    ann_path = tmp_path / "annotations.json"
    fileio.write_annotations(ann_path, image_ids, gts, image_size=config.image_size)
    return replace(config, paths=RunPaths(annotations=str(ann_path),
                                          output_dir=str(tmp_path / "out")))


class TestRun:
    def test_lambda_zero_bit_identical_to_baseline(self, tmp_path):
        config = small_world(tmp_path)
        baseline = replace(config, method="baseline")
        run(baseline)
        lam_zero = replace(config, method="method1", lam=0.0)
        run(lam_zero)
        out = tmp_path / "out"
        baseline_bytes = (out / "detections_baseline.json").read_bytes()
        method1_bytes = (out / "detections_method1.json").read_bytes()
        # The payloads differ only in nothing: identical boxes and scores.
        assert baseline_bytes == method1_bytes

    def test_fused_method_beats_baseline(self, tmp_path):
        config = small_world(tmp_path, num_images=200)
        base_report, _ = run(replace(config, method="baseline"))
        fused_report, _ = run(replace(config, method="method1+cnms"))
        assert fused_report.fp_fn_per_image < base_report.fp_fn_per_image
        assert fused_report.true_detection_ratio > base_report.true_detection_ratio

    def test_method2_zero_noise_near_perfect(self, tmp_path):
        config = small_world(tmp_path)
        config = replace(config, method="method2+cnms",
                         noise=replace(config.noise, sigma=0.0, k1=0.0, k2=0.0))
        report, display = run(config)
        assert report.true_detection_ratio >= 0.95
        assert report.fp_fn_per_image == 0.0

    def test_reproducible_end_to_end(self, tmp_path):
        config = small_world(tmp_path)
        config = replace(config, method="method1+cnms")
        report_a, display_a = run(config)
        report_b, display_b = run(config)
        assert display_a.records() == display_b.records()
        a = report_a.to_dict()
        b = report_b.to_dict()
        a.pop("runtime_s"), b.pop("runtime_s")
        assert a == b

    def test_outputs_round_trip(self, tmp_path):
        config = small_world(tmp_path)
        _, display = run(replace(config, method="baseline"))
        loaded = fileio.read_detections(tmp_path / "out" / "detections_baseline.json")
        assert loaded.records() == display.records()
        report = fileio.read_report(tmp_path / "out" / "report_baseline.json")
        assert report["method"] == "baseline"
        curve = fileio.read_curve_csv(tmp_path / "out" / "mr_fppi_baseline.csv")
        assert curve == [tuple(p) for p in map(tuple, report["metrics"]["mr_fppi_curve"])]

    def test_missing_annotations_rejected(self):
        with pytest.raises(InvalidInputError):
            run(RunConfig())

    def test_count_constrained_caps_detections(self, tmp_path):
        config = small_world(tmp_path)
        _, gts = make_world(120, seed=config.substream_seed("world"))
        report, display = run(replace(config, method="baseline", count_constrained=True))
        per_image: dict[str, int] = {}
        for det in display.records():
            per_image[det.image_id] = per_image.get(det.image_id, 0) + 1
        budget: dict[str, int] = {}
        for ann in gts:
            budget[ann.image_id] = budget.get(ann.image_id, 0) + 1
        assert all(per_image[i] <= budget.get(i, 0) for i in per_image)


    @pytest.mark.parametrize("gt_filter", ["none", "reasonable", "all"])
    def test_ground_truth_filter_keeps_the_records_it_kept(self, tmp_path, gt_filter):
        """``load_world``'s mask over the columns keeps the person records the
        per-record filter keeps, in file order."""
        config = replace(small_world(tmp_path, num_images=40), gt_filter=gt_filter)
        image_ids, gts = make_world(40, seed=config.substream_seed("world"))
        rng = np.random.default_rng(5)
        gts = [replace(ann, category=str(rng.choice(["person", "person", "dog"])),
                       height_px=float(rng.choice([20.0, 60.0, 61.0])) if rng.uniform() < 0.5
                       else None, occlusion_fraction=float(rng.choice([0.0, 0.35, 0.8, 0.2])))
               for ann in gts]
        fileio.write_annotations(config.paths.annotations, image_ids, gts)
        keep = GT_FILTERS[gt_filter]
        loaded_ids, loaded = load_world(config)
        assert loaded_ids == image_ids
        assert loaded.records() == [ann for ann in gts if ann.category == "person" and keep(ann)]


class TestSweep:
    def test_rows_and_common_random_numbers(self, tmp_path):
        config = small_world(tmp_path)
        config = replace(config, method="method2")
        rows = sweep(config, "k", [0.05, 0.2, 0.5])
        assert [row["value"] for row in rows] == [0.05, 0.2, 0.5]
        aps = [row["ap"] for row in rows]
        assert all(a >= b for a, b in zip(aps, aps[1:]))
        assert all(set(row) >= {"param", "value", "ap", "ap50", "fp_fn_per_image",
                                "true_detection_ratio", "log_avg_miss_rate"}
                   for row in rows)

    def test_lambda_sweep_touches_scores_only(self, tmp_path):
        config = small_world(tmp_path)
        config = replace(config, method="method1")
        rows = sweep(config, "lambda", [0.0, 1.0])
        assert rows[0]["value"] == 0.0 and rows[1]["value"] == 1.0

    def test_unknown_param_rejected(self, tmp_path):
        config = small_world(tmp_path)
        with pytest.raises(InvalidInputError):
            sweep(config, "bogus", [1.0])


class TestRadioPipeline:
    GEO_H = ArrayGeometry(num_antennas=8, element_spacing=0.0258, num_subcarriers=32,
                          base_frequency=5.8e9, frequency_interval=312.5e3,
                          orientation="horizontal")
    GEO_V = ArrayGeometry(num_antennas=8, element_spacing=0.0258, num_subcarriers=32,
                          base_frequency=5.8e9, frequency_interval=312.5e3,
                          orientation="vertical")

    def test_localize_then_project_recovers_planted_person(self):
        radio = RadioParams()
        tof_grid = default_tof_grid(self.GEO_H, radio.num_tof_bins)
        tof = float(tof_grid[3])  # 200 ns, an interior delay bin
        frame_h = synthesize_csi([(92.0, tof, 1.0)], self.GEO_H, noise_std=0.0)
        frame_v = synthesize_csi([(91.0, tof, 1.0)], self.GEO_V, noise_std=0.0)
        estimates = localize_frames([(frame_h, "img0"), (frame_v, "img0")], radio)
        assert list(estimates) == ["img0"]
        (est,) = estimates["img0"]
        assert est.aoa_h == 92.0 and est.aoa_v == 91.0
        assert est.tof == pytest.approx(tof)

        camera = CameraModel(focal_length_px=3000.0, image_width=1280.0,
                             image_height=720.0, fov_h=64.0, fov_v=52.0)
        regions = project_estimates(estimates, camera, radio)
        (region,) = regions["img0"]
        expected_x = 640.0 + 3000.0 * np.tan(np.radians(2.0))
        expected_y = 360.0 + 3000.0 * np.tan(np.radians(1.0))
        assert region.center_x == pytest.approx(expected_x)
        assert region.center_y == pytest.approx(expected_y)
        plane_dist = 299_792_458.0 * tof * np.cos(np.radians(2.0)) * np.cos(np.radians(1.0))
        assert region.edge == pytest.approx(3000.0 / plane_dist, rel=1e-12)

    def test_localize_requires_both_axes(self):
        radio = RadioParams()
        frame_h = synthesize_csi([(92.0, 5e-7, 1.0)], self.GEO_H, noise_std=0.0)
        estimates = localize_frames([(frame_h, "img0")], radio)
        assert estimates == {"img0": []}

    def test_duplicate_orientation_rejected(self):
        radio = RadioParams()
        frame = synthesize_csi([(92.0, 5e-7, 1.0)], self.GEO_H, noise_std=0.0)
        with pytest.raises(InvalidInputError):
            localize_frames([(frame, "img0"), (frame, "img0")], radio)


class TestOneStageFlow:
    def test_method1_cnms_with_cells(self, tmp_path):
        # Hand-built grid-cell detections exercising the one-stage decay.
        config = small_world(tmp_path)
        dets = [
            Detection(image_id="img00000", bbox=(10.0, 10.0, 40.0, 80.0), score=0.9,
                      cell=(0.0, 0.0, 64.0, 64.0)),
            Detection(image_id="img00000", bbox=(400.0, 300.0, 40.0, 80.0), score=0.8,
                      cell=(384.0, 256.0, 64.0, 64.0)),
        ]
        det_path = tmp_path / "cells.json"
        fileio.write_detections(det_path, dets)
        config = replace(
            config,
            method="method1+cnms",
            mode="one_stage",
            paths=replace(config.paths, detections=str(det_path)),
        )
        report, display = run(config)
        assert len(display) <= len(dets)
        assert all(0.0 <= d.score <= 1.0 for d in display.records())
        assert report.fp_fn_per_image >= 0.0
