"""The CLI on small valid files with one value mutated or one key dropped.

Every input the CLI reads (annotations, detections, regions, a CSI frame
pair, estimates and a run configuration) starts from a small valid file.
One node of it, a scalar or a container, is replaced by an awkward JSON
value or, inside an object, dropped. Whatever the file then says, ``main``
must return 0 or 2, and no warning may escape: it must never end in a
traceback.
"""

import json
import math
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from radiofusion import fileio
from radiofusion.cli import main
from radiofusion.config import RunConfig
from radiofusion.radio import ArrayGeometry, synthesize_csi

DROP = object()  # the mutation that removes a key from its object
VALUES = [math.nan, math.inf, -math.inf, 1e308, -1e308, 2**63, 1e-320, "", None, [], {}, True]

_BOX = [600.0, 300.0, 60.0, 150.0]
ANNOTATIONS = {"schema": fileio.ANNOTATIONS_SCHEMA,
               "images": [{"id": "a", "width": 1280.0, "height": 720.0}, {"id": "b"}],
               "annotations": [
                   {"image_id": "a", "bbox": _BOX, "category": "person", "height": 150.0,
                    "occlusion": 0.1},
                   {"image_id": "a", "bbox": [200.0, 320.0, 50.0, 120.0]},
                   {"image_id": "b", "bbox": [900.0, 280.0, 70.0, 170.0], "ignore": True}]}
DETECTIONS = {"schema": fileio.DETECTIONS_SCHEMA, "detections": [
    {"image_id": "a", "bbox": [602.0, 298.0, 61.0, 149.0], "score": 0.9},
    {"image_id": "a", "bbox": [590.0, 305.0, 58.0, 140.0], "score": 0.6, "region_id": "r0",
     "cell": _BOX},
    {"image_id": "b", "bbox": [10.0, 20.0, 30.0, 60.0], "score": 0.4}]}
REGIONS = {"schema": fileio.REGIONS_SCHEMA, "images": {
    "a": [{"center_x": 630.0, "center_y": 375.0, "edge": 160.0, "id": "r0"}], "b": []}}
ESTIMATES = {"schema": fileio.ESTIMATES_SCHEMA, "images": {
    "f0": [{"aoa_h": 91.0, "aoa_v": 89.0, "tof": 4e-8, "magnitude": 1.0, "id": "p0"}], "f1": []}}
CONFIG = {**RunConfig().to_dict(), "method": "method1+cnms"}


def _frame(orientation: str) -> dict:
    """A CSI frame of one emitter on a rig large enough that a carrier or a
    spacing of 1e308 overflows its phases."""
    geometry = ArrayGeometry(8, 0.0258, 8, 5.8e9, 312.5e3, orientation)
    frame = synthesize_csi([(80.0, 40e-9, 1.0)], geometry, timestamp=2.0)
    return {"schema": fileio.CSI_SCHEMA, "image_id": "f0", "timestamp": 2.0,
            "geometry": {"num_antennas": 8, "element_spacing": 0.0258, "num_subcarriers": 8,
                         "base_frequency": 5.8e9, "frequency_interval": 312.5e3,
                         "orientation": orientation},
            "samples": frame.samples.view(float).reshape(-1, 2).tolist()}


# Per kind, its valid documents: one file each, all written for every call.
DOCUMENTS = {"annotations": [ANNOTATIONS], "detections": [DETECTIONS], "regions": [REGIONS],
             "csi": [_frame("horizontal"), _frame("vertical")], "estimates": [ESTIMATES],
             "config": [CONFIG]}


def _paths(value, prefix=()):
    """The path of every node below ``value``; a list longer than two only
    through its first and last items, so long sample lists do not crowd out
    the rest."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = list(enumerate(value))
        items = items if len(items) <= 2 else [items[0], items[-1]]
    else:
        return []
    return [node for key, item in items
            for node in [prefix + (key,), *_paths(item, prefix + (key,))]]


def _mutations(kind: str):
    """(kind, path, value) with the path's first step the document's index."""
    paths = [(n, *path) for n, doc in enumerate(DOCUMENTS[kind]) for path in _paths(doc)]
    return st.tuples(st.just(kind), st.sampled_from(paths), st.sampled_from([*VALUES, DROP]))


def _mutated(kind: str, path: tuple, value) -> list:
    docs = json.loads(json.dumps(DOCUMENTS[kind]))
    *steps, last = path
    node = docs
    for step in steps:
        node = node[step]
    if value is DROP:
        if not isinstance(node, dict):
            value = None  # a list item has no key to drop; null it instead
        else:
            del node[last]
            return docs
    node[last] = value
    return docs


def _write(folder, kind: str, docs: list) -> list:
    paths = []
    for n, doc in enumerate(docs):
        paths.append(folder / f"{kind}{n}.json")
        paths[-1].write_text(json.dumps(doc))
    return paths


def _commands(inputs: dict, out: str) -> list:
    """The CLI calls that read each kind of file: ``run`` reads the world and
    the config, ``localize`` the frames and ``project`` the estimates."""
    common = ["--config", inputs["config"][0], "--output-dir", out]
    run = ["run", "--annotations", inputs["annotations"][0],
           "--detections", inputs["detections"][0], "--regions", inputs["regions"][0], *common]
    return [run, ["localize", "--csi", *inputs["csi"], *common],
            ["project", "--estimates", inputs["estimates"][0], *common]]


def test_the_valid_files_run(tmp_path):
    inputs = {kind: list(map(str, _write(tmp_path, kind, docs)))
              for kind, docs in DOCUMENTS.items()}
    for argv in _commands(inputs, str(tmp_path / "out")):
        assert main(argv) == 0


@settings(max_examples=500, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(sorted(DOCUMENTS)).flatmap(_mutations))
@example(("csi", (1, "geometry", "element_spacing"), 1e308))
@example(("csi", (1, "geometry", "base_frequency"), 1e308))
@example(("csi", (0, "geometry", "frequency_interval"), 1e-320))
def test_a_mutated_input_exits_0_or_2(tmp_path, capsys, mutation):
    kind, path, value = mutation
    inputs = {name: list(map(str, _write(tmp_path, name, docs)))
              for name, docs in DOCUMENTS.items() if name != kind}
    inputs[kind] = list(map(str, _write(tmp_path, kind, _mutated(kind, path, value))))
    for argv in _commands(inputs, str(tmp_path / "out")):
        if set(inputs[kind]) & set(argv):  # the calls that read the mutated file
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(argv)
            assert code in (0, 2), (argv[0], capsys.readouterr())
