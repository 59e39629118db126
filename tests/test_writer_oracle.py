"""The one-format writers against the spellings they replaced.

``fileio.dump_json`` leaves every value to ``json.dumps(indent=1,
sort_keys=True)`` except the row runs a writer hands it: CSI samples and a
report's miss-rate curve are spelled by one ``%r`` format over a template
of their shape. Either way the bytes must be ``json.dumps``'s.
``write_curve_csv`` writes its rows by one ``%s`` format; the oracle is the
``csv.writer`` version it replaced, kept verbatim.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radiofusion import fileio
from radiofusion.radio import ArrayGeometry, CsiFrame

NAN, INF = math.nan, math.inf


def _stdlib(doc) -> bytes:
    return (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode()


def _dumped(tmp_path_factory, doc) -> bytes:
    path = tmp_path_factory.mktemp("dump") / "doc.json"
    fileio.dump_json(path, doc)
    return path.read_bytes()


# -- Rows of floats --------------------------------------------------------

_plain = st.floats(allow_nan=False, allow_infinity=False)
_special = st.sampled_from([-0.0, 0.0, 5e-324, 1e308, -1e308, NAN, INF, -INF])
_odd = (st.floats().map(np.float64) | st.integers() | st.booleans()
        | st.sampled_from([np.float64(1.5), np.float64(NAN), 1, True, False]))
_other_items = st.sampled_from([0, 1.5, "row", None, [], (), {}, {"a": 1.0}])


@st.composite
def row_lists(draw):
    """Rows of widths 0-5 as lists or tuples; ``plain`` ones hold finite
    floats of one width, the others mix in NaN, infinities, ``1e308`` pairs
    whose sum overflows, numpy floats, ints, booleans, ragged rows and
    items that are not rows."""
    width = draw(st.integers(0, 5))
    plain = draw(st.booleans())
    cells = _plain if plain else _plain | _special | _odd
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        size = width if plain or draw(st.integers(0, 3)) else draw(st.integers(0, 5))
        kind = draw(st.sampled_from([list, tuple]))
        rows.append(kind(draw(st.lists(cells, min_size=size, max_size=size))))
    if not plain and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), draw(_other_items))
    return rows if draw(st.booleans()) else tuple(rows)


@settings(max_examples=300, deadline=None)
@given(row_lists(), row_lists())
@example([[1e308, 1e308]], [(-1e308, -1e308), (1e308, 1.0)])
@example([[], []], [[0.0], [0.0, 1.0]])
@example([[0.5, NAN]], [(INF,), (-INF,)])
@example([[np.float64(0.1), 0.2]], [[1, 2.5], [True, 0.5]])
@example([[-0.0, 0.0], 1.5], [[1.0, 2.0], (3.0, 4.0)])
def test_row_lists_match_stdlib(tmp_path_factory, rows, nested):
    doc = {"rows": rows, "deeper": {"rows": nested, "list": [nested, rows]}, "": [[], 0]}
    assert _dumped(tmp_path_factory, doc) == _stdlib(doc)


def _count_list_rows(monkeypatch) -> list:
    """The ``newline`` of every ``fileio._list_rows`` call from now on."""
    calls, list_rows = [], fileio._list_rows
    monkeypatch.setattr(fileio, "_list_rows",
                        lambda *args: calls.append(args[-1]) or list_rows(*args))
    return calls


def test_a_csi_frame_takes_the_row_path(tmp_path, monkeypatch):
    geometry = ArrayGeometry(8, 0.0258, 32, 5.8e9, 312500.0, "vertical")
    samples = np.random.default_rng(3).normal(size=(8, 32, 2))
    samples[0, 0] = [0.0, -0.0]
    calls = _count_list_rows(monkeypatch)
    fileio.write_csi_frame(tmp_path / "frame.json",
                           CsiFrame(samples.view(np.complex128)[..., 0], geometry, 1.5), "img")
    assert calls == ["\n  "]
    assert (tmp_path / "frame.json").read_bytes() == _stdlib({
        "schema": fileio.CSI_SCHEMA, "timestamp": 1.5, "image_id": "img",
        "geometry": {"num_antennas": 8, "element_spacing": 0.0258, "num_subcarriers": 32,
                     "base_frequency": 5.8e9, "frequency_interval": 312500.0,
                     "orientation": "vertical"},
        "samples": samples.reshape(-1, 2).tolist()})


def test_a_long_curve_takes_the_row_path(tmp_path, monkeypatch):
    rng = np.random.default_rng(4)
    fppi, miss = np.cumsum(rng.random(1500)).tolist(), rng.random(1500).tolist()
    curve = [[f, m] for f, m in zip(fppi, miss)]
    curve[7] = [0.0, -0.0]
    report = {"method": "m", "num_gts": 3,
              "metrics": {"ap": 0.5, "mr_fppi_curve": curve, "tag": "\u00e9"}}
    calls = _count_list_rows(monkeypatch)
    fileio.write_report(tmp_path / "report.json", report)
    assert calls == ["\n   "]
    assert (tmp_path / "report.json").read_bytes() == _stdlib(report)


# Keys that collide across depths and with what the stdlib writes around a value.
_keys = st.sampled_from(["a", "b", "null", "", '"', "a\nb", ": null", "é"])
_leaves = (st.none() | st.booleans() | _plain | st.text(max_size=3)
           | st.lists(_plain | st.none(), max_size=3))


@st.composite
def docs_with_runs(draw, depth=0):
    """(payload with ``_Rows`` runs of ``[a, b]`` float pairs at any depth of
    dicts, the same document with plain lists)."""
    payload, plain = {}, {}
    for key in draw(st.lists(_keys, max_size=4, unique=True)):
        kind = draw(st.sampled_from(["leaf", "run", "dict"] if depth < 3 else ["leaf", "run"]))
        if kind == "run":
            pairs = draw(st.lists(st.tuples(_plain, _plain), min_size=1, max_size=3))
            values = [value for pair in pairs for value in pair]
            plain[key] = [list(pair) for pair in pairs]
            payload[key] = fileio._pair_rows(values, "\n" + " " * (depth + 2), "run")
        elif kind == "dict":
            payload[key], plain[key] = draw(docs_with_runs(depth + 1))
        else:
            payload[key] = plain[key] = draw(_leaves)
    return payload, plain


@settings(max_examples=200, deadline=None)
@given(docs_with_runs())
@example(({"a": {"null": fileio._pair_rows([1.0, 2.0], "\n   ", "run"), "a": None}, "null": None},
          {"a": {"null": [[1.0, 2.0]], "a": None}, "null": None}))
def test_runs_at_any_depth_of_dicts_match_stdlib(tmp_path_factory, docs):
    payload, plain = docs
    assert _dumped(tmp_path_factory, payload) == _stdlib(plain)


# -- Curve CSV -------------------------------------------------------------

def oracle_write_curve_csv(path, curve):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("fppi", "miss_rate"))
        writer.writerows([list(point) for point in curve])


_numbers = (st.floats() | st.sampled_from([-0.0, NAN, INF, -INF, 1e16, 1e-5, 5e-324])
            | st.floats().map(np.float64) | st.floats(width=32).map(np.float32)
            | st.integers() | st.integers(-10, 10).map(np.int64) | st.booleans())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_numbers, _numbers) | st.lists(_numbers, min_size=2, max_size=2),
                max_size=8))
@example([])
@example([(np.float64(0.25), np.float64(NAN)), (0, 1)])
def test_curve_csv_matches_csv_writer(tmp_path_factory, curve):
    folder = tmp_path_factory.mktemp("curve")
    fileio.write_curve_csv(folder / "new.csv", curve)
    oracle_write_curve_csv(folder / "old.csv", curve)
    assert (folder / "new.csv").read_bytes() == (folder / "old.csv").read_bytes()
