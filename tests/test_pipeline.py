"""End-to-end pipeline behavior on synthetic worlds."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import read_curve_csv, reasonable, visible
from radiofusion import fileio, metrics, pipeline
from radiofusion.config import METHOD_READS, METHODS, RadioParams, RunConfig, RunPaths
from radiofusion.errors import InvalidInputError
from radiofusion.imaging import CameraModel
from radiofusion.pipeline import build_detections, build_regions, evaluate, load_world, \
    localize_frames, project_estimates, run, sweep
from radiofusion.radio import ArrayGeometry, synthesize_csi, default_tof_grid
from radiofusion.synth import make_world
from radiofusion.world import Annotations, Detection, Detections, Regions
from test_metrics_oracle import REVIVED


def small_world(tmp_path, num_images=120, seed=77):
    config = RunConfig(seed=seed)
    image_ids, gts = make_world(num_images, seed=config.substream_seed("world"))
    ann_path = tmp_path / "annotations.json"
    fileio.write_annotations(ann_path, image_ids, gts, image_size=config.image_size)
    return replace(config, paths=RunPaths(annotations=str(ann_path),
                                          output_dir=str(tmp_path / "out")))


def _match_calls(monkeypatch, config, *world) -> list[bool]:
    """Each ``metrics._match`` call of one ``evaluate``: whether it walked by score."""
    match, by_score = metrics._match, []

    def counted(*args, **kwargs):
        by_score.append(kwargs.get("by_score", True))
        return match(*args, **kwargs)

    monkeypatch.setattr(metrics, "_match", counted)
    evaluate(config, *world)
    return by_score


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
        report = fileio.load_json(tmp_path / "out" / "report_baseline.json")
        assert report["method"] == "baseline"
        curve = read_curve_csv(tmp_path / "out" / "mr_fppi_baseline.csv")
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


    @pytest.mark.parametrize("count_constrained", [False, True])
    @pytest.mark.parametrize("method", METHODS)
    def test_one_evaluate_matches_once(self, tmp_path, monkeypatch, method, count_constrained):
        """AP, the miss rate and the visual counts read one match of the
        ranked detections, whose file order here is their score order."""
        config = replace(small_world(tmp_path, num_images=20), method=method,
                         count_constrained=count_constrained)
        image_ids, gts = load_world(config)
        detections = build_detections(config, gts, image_ids)
        regions = build_regions(config, gts)
        assert _match_calls(monkeypatch, config, image_ids, gts, detections, regions) == [True]

    @pytest.mark.parametrize("count_constrained", [False, True])
    def test_a_revived_candidate_out_of_score_order_matches_again(self, monkeypatch,
                                                                  count_constrained):
        """A fallback candidate that outscores a box kept before it leaves the
        file order off the score order, so the visual counts match in file order."""
        image_ids, people, dets, regions = REVIVED
        config = replace(RunConfig(), method="method2+cnms", count_constrained=count_constrained,
                         nms=replace(RunConfig().nms, iou_threshold=0.3))
        calls = _match_calls(monkeypatch, config, image_ids, Annotations.from_records(people),
                             Detections.from_records(dets), Regions.from_records(regions))
        # Capped at its two people, the image keeps its two 1.0 boxes, in order.
        assert calls == ([True] if count_constrained else [True, False])

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
        keep = {"none": lambda ann: True, "reasonable": reasonable, "all": visible}[gt_filter]
        loaded_ids, loaded = load_world(config)
        assert loaded_ids == image_ids
        assert loaded.records() == [ann for ann in gts if ann.category == "person" and keep(ann)]

    def test_a_mask_that_keeps_every_row_takes_no_copy(self, tmp_path):
        """``take`` of an all-true mask is the table itself; an index array
        and a mask that drops a row still build new columns of those rows."""
        config = small_world(tmp_path, num_images=12)
        _, gts = load_world(config)
        detections = build_detections(config, gts, [f"img{i}" for i in range(12)])
        regions = build_regions(config, gts)
        for table in (gts, detections, regions):
            assert table.take(np.ones(len(table), dtype=bool)) is table
            every = table.take(np.arange(len(table)))
            assert every is not table and every.ids == table.ids
            assert every.records() == table.records()
        for table in (gts, detections):
            assert table.take(np.arange(len(table)) > 0).records() == table.records()[1:]
        # A people-only world under gt_filter "none" keeps the table read.
        read = fileio.read_annotations(config.paths.annotations)[1]
        assert load_world(config)[1].records() == read.records()

    def test_grouping_over_its_own_ids_in_order_takes_no_copy(self, tmp_path):
        """``grouped`` of a table in image order over its own id table is the
        table itself; its columns are those of the remap path, which a table
        out of order still takes."""

        def remapped(table, ids):  # the remap path: index dict, remap, stable sort
            index = {key: i for i, key in enumerate(ids)}
            remap = np.array([index.get(key, -1) for key in table.ids], dtype=np.intp)
            table = replace(table, ids=tuple(ids), image=remap[table.image])
            return table.take(np.argsort(table.image, kind="stable"))

        def columns(table):  # records read NaN as None, so the comparison is exact
            return table.ids, table.image.tolist(), table.records()

        config = small_world(tmp_path, num_images=12)
        _, gts = load_world(config)
        detections = build_detections(config, gts, [f"img{i}" for i in range(12)])
        for table in (gts, detections, build_regions(config, gts)):
            assert (table.image[1:] >= table.image[:-1]).all()
            assert table.grouped(list(table.ids)) is table
            assert columns(table) == columns(remapped(table, list(table.ids)))
            shuffled = table.take(np.random.default_rng(3).permutation(len(table)))
            assert columns(shuffled.grouped(table.ids)) == columns(remapped(shuffled, table.ids))

    def test_each_method_reads_the_inputs_its_steps_use(self):
        """The detector's boxes feed baseline and revision; regions feed
        revision, proposals and every constrained NMS."""
        assert METHOD_READS == {
            "baseline": (True, False), "method1": (True, True), "method2": (False, True),
            "method1+cnms": (True, True), "method2+cnms": (False, True)}

    @pytest.mark.parametrize("method", METHODS)
    def test_a_run_emulates_and_simulates_only_what_its_method_reads(self, tmp_path,
                                                                      monkeypatch, method):
        built = []
        for name in ("synth_generate", "build_simulative_set"):
            def counted(*args, _name=name, _build=getattr(pipeline, name), **kwargs):
                built.append(_name)
                return _build(*args, **kwargs)

            monkeypatch.setattr(pipeline, name, counted)
        run(replace(small_world(tmp_path, num_images=10), method=method))
        uses_detections, uses_regions = METHOD_READS[method]
        assert built == (["synth_generate"] * uses_detections
                         + ["build_simulative_set"] * uses_regions)


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

        camera = CameraModel(focal_length_px=3000.0, image_width=1280.0, image_height=720.0)
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

    def test_frames_without_an_image_id_group_by_their_exact_timestamp(self):
        """Epoch timestamps a few seconds apart are different images, while
        a timestamp that six digits spell exactly keeps its short key, and
        -0.0 is the moment 0.0."""
        radio = RadioParams()
        frames = []
        for timestamp in (1697000000.5, 1697000100.0, 0.0, 1.5):
            for geo, sign in ((self.GEO_H, 1.0), (self.GEO_V, -1.0)):
                frames.append((synthesize_csi([(92.0, 2e-7, 1.0)], geo, noise_std=0.0,
                                              timestamp=timestamp or sign * 0.0), None))
        estimates = localize_frames(frames, radio)
        assert sorted(estimates) == ["t0", "t1.5", "t1697000000.5", "t1697000100.0"]
        assert all(len(found) == 1 for found in estimates.values())
        # A lone horizontal and a lone vertical frame from different moments
        # are two incomplete images, not one pair.
        lone = localize_frames([frames[0], frames[3]], radio)
        assert lone == {"t1697000000.5": [], "t1697000100.0": []}


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
        fileio.write_detections(det_path, Detections.from_records(dets))
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
