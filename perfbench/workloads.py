"""Benchmark workloads: seeded inputs, the CLI calls of one round, output checks.

A workload writes its inputs once per set-up, then repeats rounds of real
``radiofusion`` CLI calls on those files. Each call names the files it
writes; their digests leave out ``runtime_s``, the only field that is not
byte-stable. README.md in this directory says why each workload exists.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from radiofusion import (
    ArrayGeometry,
    NoiseParams,
    SynthParams,
    build_simulative_set,
    fileio,
    generate,
    make_world,
    synthesize_csi,
)

RUN_METHODS = ("baseline", "method1", "method2", "method1+cnms", "method2+cnms")
SWEEP_METHODS = ("method1+cnms", "method2+cnms")
SWEEP_VALUES = ("0.05", "0.2", "0.4")
RIG = dict(num_antennas=8, element_spacing=0.0258, num_subcarriers=32,
           base_frequency=5.8e9, frequency_interval=312.5e3)
# Emitters stay inside the frame of the default camera (3000 px focal
# length, 1280x720): |tan| below 640/3000 horizontally and 360/3000
# vertically, less one grid degree so rounding to the 1-degree grid keeps
# most estimates in view.
MAX_OFF_H_DEG = 11.0
MAX_OFF_V_DEG = 5.8

SIZES = {
    "full": {"eval-sparse": 150, "crowd-sweep": 3, "localize-csi": 150},
    "tiny": {"eval-sparse": 8, "crowd-sweep": 1, "localize-csi": 4},
}


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _report_digest(path: Path) -> bytes:
    report = json.loads(path.read_text(encoding="utf-8"))
    report["metrics"].pop("runtime_s")
    return json.dumps(report, sort_keys=True).encode()


def _sweep_digest(path: Path) -> bytes:
    rows = list(csv.DictReader(path.read_text(encoding="utf-8").splitlines()))
    for row in rows:
        row.pop("runtime_s")
    return json.dumps(rows, sort_keys=True).encode()


@dataclass
class Call:
    """One CLI invocation of a round and the files it must produce."""

    name: str
    argv: list[str]
    outputs: list[Path]
    check: Callable[[list[Path]], str | None]

    def digest(self) -> str:
        h = hashlib.sha256()
        for path in self.outputs:
            if path.name.startswith("report_"):
                h.update(_report_digest(path))
            elif path.name.startswith("sweep_"):
                h.update(_sweep_digest(path))
            else:
                h.update(path.read_bytes())
        return h.hexdigest()


@dataclass
class Inputs:
    """Files written by one set-up, plus facts the output checks need."""

    files: list[Path]
    items_per_round: int
    facts: dict = field(default_factory=dict)

    def sha256s(self) -> dict[str, str]:
        """sha256 of each input file; CSI frames share one digest over all of them."""
        frames = [p for p in self.files if p.parent.name == "frames"]
        record = {p.name: sha256_file(p) for p in self.files if p.parent.name != "frames"}
        if frames:
            h = hashlib.sha256()
            for path in frames:
                h.update(path.name.encode() + b"\0" + path.read_bytes())
            record[f"frames/*.json ({len(frames)} files)"] = h.hexdigest()
        return record


class Workload:
    name = ""
    unit = ""  # what items_per_s counts

    def __init__(self, work: Path, seed: int, size: str = "full") -> None:
        self.work = work
        self.seed = seed
        self.n = SIZES[size][self.name]

    def setup(self) -> tuple[Inputs, float]:
        """Write the inputs; returns them and the seconds spent generating."""
        raise NotImplementedError

    def calls(self, inputs: Inputs) -> list[Call]:
        raise NotImplementedError

    def reset(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)


def _report_problem(path: Path, num_images: int) -> str | None:
    report = json.loads(path.read_text(encoding="utf-8"))
    metrics = report["metrics"]
    for key in ("ap", "ap50", "ap75", "ap_s", "ap_m", "ap_l", "true_detection_ratio"):
        if not 0.0 <= metrics[key] <= 1.0:
            return f"{path.name}: {key}={metrics[key]} outside [0, 1]"
    for key in ("log_avg_miss_rate", "fp_fn_per_image"):
        if not math.isfinite(metrics[key]) or metrics[key] < 0:
            return f"{path.name}: {key}={metrics[key]} not finite and >= 0"
    if report["num_images"] != num_images:
        return f"{path.name}: num_images {report['num_images']} != {num_images}"
    return None


class _World(Workload):
    """Annotations plus emulated detections from a ``make_world`` pool.

    The world holds ``n`` images for every head count from 0 to
    ``max_people``, taken in order from a larger ``make_world`` draw.
    Matching and suppression cost grows with the square of the people in
    an image, so a plain draw of a few dozen crowded images changed the work
    by a quarter from seed to seed. Fixing how many images have each head
    count keeps the work alike across seeds while the seed still places
    every box.
    """

    max_people = 3

    def _world(self) -> tuple[list[str], list]:
        levels = self.max_people + 1
        pool_ids, pool = make_world(3 * levels * (self.n + 10),
                                    max_people=self.max_people, seed=self.seed)
        by_image: dict[str, list] = {image_id: [] for image_id in pool_ids}
        for ann in pool:
            by_image[ann.image_id].append(ann)
        taken = [0] * levels
        image_ids, gts = [], []
        for anns in by_image.values():
            if taken[len(anns)] == self.n:
                continue
            taken[len(anns)] += 1
            image_id = f"img{len(image_ids):05d}"
            image_ids.append(image_id)
            gts.extend(replace(ann, image_id=image_id) for ann in anns)
        if len(image_ids) != self.n * levels:
            raise RuntimeError(f"pool too small for {self.n} images per head count")
        return image_ids, gts

    def _write_world(self) -> tuple[list[Path], dict, float]:
        start = time.perf_counter()
        image_ids, gts = self._world()
        detections = generate(gts, SynthParams(seed=self.seed + 1), image_ids=image_ids)
        generated = time.perf_counter() - start
        ann = self.work / "annotations.json"
        det = self.work / "detections.json"
        fileio.write_annotations(ann, image_ids, gts, image_size=(1280.0, 720.0))
        fileio.write_detections(det, detections)
        return [ann, det], {"gts": gts, "image_ids": image_ids}, generated


class EvalSparse(_World):
    name = "eval-sparse"
    unit = "image"

    def setup(self) -> tuple[Inputs, float]:
        files, facts, generated = self._write_world()
        start = time.perf_counter()
        regions = build_simulative_set(facts["gts"], NoiseParams(seed=self.seed + 2))
        generated += time.perf_counter() - start
        path = self.work / "regions.json"
        fileio.write_regions(path, regions)
        per_image = {image_id: len(rs) for image_id, rs in regions.items()}
        images = len(facts["image_ids"])
        return Inputs(files + [path], images * len(RUN_METHODS),
                      {"num_images": images, "regions": per_image}), generated

    def calls(self, inputs: Inputs) -> list[Call]:
        ann, det, reg = inputs.files
        out = self.work / "out"
        calls = []
        for method in RUN_METHODS:
            tag = method.replace("+", "_")
            outputs = [out / f"detections_{tag}.json", out / f"report_{tag}.json",
                       out / f"mr_fppi_{tag}.csv"]
            calls.append(Call(
                name=tag,
                argv=["run", "--method", method, "--annotations", str(ann),
                      "--detections", str(det), "--regions", str(reg),
                      "--seed", str(self.seed), "--output-dir", str(out)],
                outputs=outputs,
                check=_run_check(method, inputs.facts),
            ))
        return calls


def _run_check(method: str, facts: dict):
    """Report sanity, plus the one-box-per-region rule of the cNMS methods."""

    def check(outputs: list[Path]) -> str | None:
        detections_path, report_path, _ = outputs
        problem = _report_problem(report_path, facts["num_images"])
        if problem or not method.endswith("+cnms"):
            return problem
        shown: dict[str, int] = {}
        for record in json.loads(detections_path.read_text(encoding="utf-8"))["detections"]:
            shown[record["image_id"]] = shown.get(record["image_id"], 0) + 1
        for image_id in set(shown) | set(facts["regions"]):
            regions = facts["regions"].get(image_id, 0)
            kept = shown.get(image_id, 0)
            # method2+cnms runs the two-stage fallback: exactly one per region.
            if kept > regions or (method == "method2+cnms" and kept != regions):
                return f"{method}: image {image_id} shows {kept} boxes for {regions} regions"
        return None

    return check


class CrowdSweep(_World):
    name = "crowd-sweep"
    unit = "image"
    max_people = 16

    def setup(self) -> tuple[Inputs, float]:
        files, facts, generated = self._write_world()
        images = len(facts["image_ids"])
        passes = len(SWEEP_METHODS) * len(SWEEP_VALUES)
        return Inputs(files, images * passes, {"num_images": images}), generated

    def calls(self, inputs: Inputs) -> list[Call]:
        ann, det = inputs.files
        out = self.work / "out"
        calls = []
        for method in SWEEP_METHODS:
            tag = method.replace("+", "_")
            csv_path = out / f"sweep_{tag}.csv"
            calls.append(Call(
                name=tag,
                argv=["sweep", "--method", method, "--annotations", str(ann),
                      "--detections", str(det), "--param", "k",
                      "--values", *SWEEP_VALUES, "--seed", str(self.seed),
                      "--output-dir", str(out), "--out", str(csv_path)],
                outputs=[csv_path],
                check=_sweep_check,
            ))
        return calls


def _sweep_check(outputs: list[Path]) -> str | None:
    rows = list(csv.DictReader(outputs[0].read_text(encoding="utf-8").splitlines()))
    if [row["value"] for row in rows] != [str(float(v)) for v in SWEEP_VALUES]:
        return f"{outputs[0].name}: rows {[row['value'] for row in rows]}"
    for row in rows:
        for key in ("ap", "ap50", "true_detection_ratio"):
            if not 0.0 <= float(row[key]) <= 1.0:
                return f"{outputs[0].name}: {key}={row[key]} outside [0, 1]"
    return None


class LocalizeCsi(Workload):
    name = "localize-csi"
    unit = "frame"

    def setup(self) -> tuple[Inputs, float]:
        rng = np.random.default_rng(self.seed)
        df = RIG["frequency_interval"]
        frames_dir = self.work / "frames"
        frames_dir.mkdir(exist_ok=True)
        files = []
        generated = 0.0
        for pair in range(self.n):
            start = time.perf_counter()
            emitters = [
                (90.0 + rng.uniform(-MAX_OFF_H_DEG, MAX_OFF_H_DEG),
                 90.0 + rng.uniform(-MAX_OFF_V_DEG, MAX_OFF_V_DEG),
                 rng.uniform(0.1, 0.9) / df,
                 rng.uniform(0.5, 1.0))
                for _ in range(int(rng.integers(1, 4)))
            ]
            frames = []
            for axis, orientation in enumerate(("horizontal", "vertical")):
                geometry = ArrayGeometry(**RIG, orientation=orientation)
                targets = [(e[axis], e[2], e[3]) for e in emitters]
                frames.append(synthesize_csi(targets, geometry, noise_std=0.05,
                                             seed=int(rng.integers(0, 2**31 - 1)),
                                             timestamp=float(pair)))
            generated += time.perf_counter() - start
            for frame in frames:
                path = frames_dir / f"{pair:05d}{frame.geometry.orientation[0]}.json"
                fileio.write_csi_frame(path, frame, image_id=f"img{pair:05d}")
                files.append(path)
        return Inputs(files, len(files), {"pairs": self.n}), generated

    def calls(self, inputs: Inputs) -> list[Call]:
        estimates = self.work / "estimates.json"
        regions = self.work / "regions.json"
        return [
            Call("localize", ["localize", "--csi", *map(str, inputs.files),
                              "--out", str(estimates)],
                 [estimates], _estimates_check(inputs.facts["pairs"])),
            Call("project", ["project", "--estimates", str(estimates), "--out", str(regions)],
                 [regions], _project_check(estimates)),
        ]


def _estimates_check(pairs: int):
    def check(outputs: list[Path]) -> str | None:
        images = json.loads(outputs[0].read_text(encoding="utf-8"))["images"]
        if len(images) != pairs:
            return f"estimates for {len(images)} images, expected {pairs}"
        return None

    return check


def _project_check(estimates_path: Path):
    def check(outputs: list[Path]) -> str | None:
        estimates = json.loads(estimates_path.read_text(encoding="utf-8"))["images"]
        regions = json.loads(outputs[0].read_text(encoding="utf-8"))["images"]
        for image_id, records in regions.items():
            known = {e["id"] for e in estimates.get(image_id, [])}
            ids = [r["id"] for r in records]
            if len(ids) > len(known) or not set(ids) <= known:
                return f"image {image_id}: regions {ids} not a subset of estimates"
        return None

    return check


WORKLOADS = {cls.name: cls for cls in (EvalSparse, CrowdSweep, LocalizeCsi)}

