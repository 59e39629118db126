"""Per-layer spans and counters, recorded from outside the program.

``pipeline`` and ``cli`` look up every layer function through a module
global (``pipeline.coco_map``, ``fileio.read_detections`` ...) at call time,
so replacing those globals with timed wrappers traces a CLI call without
changing a file of the program. Spans stay in memory: name, start, end,
parent span and the id of the CLI call that caused them. A layer's self
time is its span's duration minus its direct children's durations and the
tracer's own bookkeeping between them.

The wrappers also check counter invariants on the arguments and results
they see; each violation is recorded against the CLI call.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

import radiofusion.fileio
import radiofusion.pipeline


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "call", "child_s", "overhead", "notes")

    def __init__(self, span_id: int, name: str, parent: int | None, call: int | None) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        self.call = call
        self.child_s = 0.0
        self.overhead = 0.0
        self.notes: dict[str, int] = {}
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s - self.overhead


class Tracer:
    """Span stack, per-round counters and invariant violations."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.counts: dict[str, float] = {}
        self.violations: list[str] = []
        self.call: int | None = None

    def open(self, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), name, parent, self.call)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()
        if self.stack:
            self.stack[-1].child_s += span.end - span.start

    def count(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.violations.append(message)

    def enclosing(self, name: str) -> Span | None:
        for span in reversed(self.stack):
            if span.name == name:
                return span
        return None

    def nesting_errors(self) -> list[str]:
        """Spans that start before or end after their parent span."""
        errors = []
        for span in self.spans:
            if span.parent is None:
                continue
            parent = self.spans[span.parent]
            if span.start < parent.start or span.end > parent.end:
                errors.append(f"span {span.id} {span.name} outlasts parent {parent.name}")
        return errors

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.id, s.name, s.start, s.end, s.parent, s.call]) + "\n")


# -- Hooks: counters and invariants from arguments and results -------------

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _standard_nms(t: Tracer, span: Span, args, kwargs, result) -> None:
    dets = _arg(args, kwargs, 0, "detections")
    t.count("nms.in", len(dets))
    t.count("nms.kept", len(result))
    t.require(len(result) <= len(dets), f"standard_nms kept {len(result)} of {len(dets)}")
    method = t.enclosing("pipeline.apply_method")
    if method is not None:
        method.notes["standard_in"] = method.notes.get("standard_in", 0) + len(dets)


def _constrained_nms(t: Tracer, span: Span, args, kwargs, result) -> None:
    dets = _arg(args, kwargs, 0, "detections")
    regions = _arg(args, kwargs, 1, "regions")
    cfg = _arg(args, kwargs, 2, "cfg")
    t.count("nms.in", len(dets))
    t.count("nms.kept", len(result))
    if regions is None:
        return
    t.require(len(result) <= len(regions),
              f"constrained_nms kept {len(result)} boxes for {len(regions)} regions")
    if cfg.mode == "two_stage" and cfg.enable_fallback_loop:
        t.require(len(result) == len(regions),
                  f"two_stage fallback kept {len(result)} boxes for {len(regions)} regions")


def _revise(t: Tracer, span: Span, args, kwargs, result) -> None:
    dets = _arg(args, kwargs, 0, "detections")
    t.count("fusion.revised", len(result))
    method = t.enclosing("pipeline.apply_method")
    if method is not None:
        method.notes["revise_in"] = method.notes.get("revise_in", 0) + len(dets)


def _propose(t: Tracer, span: Span, args, kwargs, result) -> None:
    t.count("fusion.proposals", len(result))


def _apply_method(t: Tracer, span: Span, args, kwargs, result) -> None:
    # The per-image lists the method's first stage sees must add up to the
    # input. method2 variants replace the input with region proposals.
    config = _arg(args, kwargs, 0, "config")
    total = len(_arg(args, kwargs, 2, "detections"))
    first = {"baseline": "standard_in", "method1": "revise_in",
             "method1+cnms": "revise_in"}.get(config.method)
    if first is not None:
        seen = span.notes.get(first, 0)
        t.require(seen == total,
                  f"apply_method({config.method}) saw {seen} per-image detections of {total}")


def _coco_map(t: Tracer, span: Span, args, kwargs, result) -> None:
    t.count("metrics.ranked", len(_arg(args, kwargs, 0, "detections")))
    t.count("metrics.gts", len(_arg(args, kwargs, 1, "gts")))


def _build_regions(t: Tracer, span: Span, args, kwargs, result) -> None:
    t.count("sim_regions.regions", sum(len(v) for v in result.values()))


def _read(t: Tracer, span: Span, args, kwargs, result) -> None:
    t.count("fileio.bytes_read", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _write(t: Tracer, span: Span, args, kwargs, result) -> None:
    t.count("fileio.bytes_written", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _spectrum(t: Tracer, span: Span, args, kwargs, result) -> None:
    frame = _arg(args, kwargs, 0, "csi")
    geometry = frame.geometry
    i, j = result.magnitudes.shape
    m, k = geometry.num_antennas, geometry.num_subcarriers
    t.count("radio.frames", 1)
    t.count("radio.cmacs", i * m * k + i * k * j)


def _peaks(t: Tracer, span: Span, args, kwargs, result) -> None:
    t.count("radio.peaks", len(result))


def _fuse(t: Tracer, span: Span, args, kwargs, result) -> None:
    horizontal = _arg(args, kwargs, 0, "horizontal_peaks")
    vertical = _arg(args, kwargs, 1, "vertical_peaks")
    t.count("radio.estimates", len(result))
    t.count("radio.horizontal_peaks", len(horizontal))
    t.require(len(result) <= min(len(horizontal), len(vertical)),
              f"fuse_axes paired {len(result)} from {len(horizontal)} x {len(vertical)} peaks")


def _project(t: Tracer, span: Span, args, kwargs, result) -> None:
    estimates = _arg(args, kwargs, 0, "estimates")
    t.count("imaging.estimates", len(estimates))
    t.count("imaging.regions", len(result))
    t.require(len(result) <= len(estimates),
              f"batch_project made {len(result)} regions from {len(estimates)} estimates")


# (module, attribute, span name, time metric, hook)
_PIPELINE = radiofusion.pipeline
_FILEIO = radiofusion.fileio
WRAPS = [
    (_PIPELINE, "apply_method", "pipeline.apply_method", "pipeline.self_s", _apply_method),
    (_PIPELINE, "coco_map", "metrics.coco_map", "metrics.coco_map_s", _coco_map),
    (_PIPELINE, "mr_fppi", "metrics.mr_fppi", "metrics.mr_fppi_s", None),
    (_PIPELINE, "visual_metrics", "metrics.visual_metrics", "metrics.visual_s", None),
    (_PIPELINE, "standard_nms", "nms.standard_nms", "nms.standard_s", _standard_nms),
    (_PIPELINE, "associate_regions", "nms.associate_regions", "nms.associate_s", None),
    (_PIPELINE, "constrained_nms", "nms.constrained_nms", "nms.constrained_s", _constrained_nms),
    (_PIPELINE, "revise_detections", "fusion.revise_detections", "fusion.revise_s", _revise),
    (_PIPELINE, "proposals_to_detections", "fusion.proposals_to_detections",
     "fusion.propose_s", _propose),
    (_PIPELINE, "build_simulative_set", "sim_regions.build_simulative_set",
     "sim_regions.build_s", _build_regions),
    (_PIPELINE, "compute_spectrum", "radio.compute_spectrum", "radio.spectrum_s", _spectrum),
    (_PIPELINE, "pick_peaks", "radio.pick_peaks", "radio.peaks_s", _peaks),
    (_PIPELINE, "fuse_axes", "radio.fuse_axes", "radio.fuse_s", _fuse),
    (_PIPELINE, "batch_project", "imaging.batch_project", "imaging.project_s", _project),
] + [
    (_FILEIO, name, f"fileio.{name}", "fileio.read_s", _read)
    for name in ("read_annotations", "read_detections", "read_regions",
                 "read_csi_frame", "read_estimates")
] + [
    (_FILEIO, name, f"fileio.{name}", "fileio.write_s", _write)
    for name in ("write_detections", "write_report", "write_curve_csv",
                 "write_estimates", "write_regions")
]
TIME_METRIC = {span: metric for _, _, span, metric, _ in WRAPS}


def _wrap(tracer: Tracer, fn, name: str, hook):
    def traced(*args, **kwargs):
        entered = time.perf_counter()
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if hook is not None:
            hook(tracer, span, args, kwargs, result)
        if tracer.stack:
            parent = tracer.stack[-1]
            parent.overhead += time.perf_counter() - entered - (span.end - span.start)
        return result

    return traced


@contextmanager
def installed(tracer: Tracer):
    """Replace every wrapped global for the duration of the block."""
    originals = [(module, attr, getattr(module, attr)) for module, attr, *_ in WRAPS]
    try:
        for (module, attr, name, _, hook), (_, _, fn) in zip(WRAPS, originals):
            setattr(module, attr, _wrap(tracer, fn, name, hook))
        yield tracer
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)


def layer_metrics(spans: list[Span], counts: dict[str, float]) -> dict[str, float]:
    """Per-layer values of one round from its spans and counters."""
    values = {metric: 0.0 for metric in TIME_METRIC.values()}
    for span in spans:
        # CLI call spans ("cli.<command>") are the pipeline layer's own time.
        metric = "pipeline.self_s" if span.name.startswith("cli.") else TIME_METRIC[span.name]
        values[metric] += span.self_s
    for key in ("metrics.ranked", "metrics.gts", "nms.in", "nms.kept", "fusion.revised",
                "fusion.proposals", "sim_regions.regions", "fileio.bytes_read",
                "fileio.bytes_written", "radio.frames", "radio.peaks", "radio.estimates"):
        values[key] = counts.get(key, 0.0)
    values["nms.keep_ratio"] = _ratio(counts, "nms.kept", "nms.in")
    values["radio.pair_ratio"] = _ratio(counts, "radio.estimates", "radio.horizontal_peaks")
    values["radio.spectrum_cmacs"] = _ratio(counts, "radio.cmacs", "radio.frames")
    values["imaging.in_view_ratio"] = _ratio(counts, "imaging.regions", "imaging.estimates")
    return values


def _ratio(counts: dict[str, float], num: str, den: str) -> float:
    return counts.get(num, 0.0) / counts[den] if counts.get(den) else 0.0
