"""The one-format writers against the spellings they replaced.

``fileio._encode`` spells a list of equal-length rows of finite floats by
one ``%r`` format over a template of its shape; every other list goes item
by item. Either way the bytes must be ``json.dumps(indent=1,
sort_keys=True)``'s. ``write_curve_csv`` writes its rows by one ``%s``
format; the oracle is the ``csv.writer`` version it replaced, kept verbatim.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radiofusion import fileio

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


def test_a_csi_frame_takes_the_row_path(tmp_path_factory):
    samples = np.random.default_rng(3).normal(size=(256, 2)).tolist()
    doc = {"schema": fileio.CSI_SCHEMA, "samples": samples}
    assert fileio._float_rows(samples, "\n ", "\n  ") is not None
    assert _dumped(tmp_path_factory, doc) == _stdlib(doc)


def test_a_long_curve_takes_the_row_path(tmp_path_factory):
    rng = np.random.default_rng(4)
    fppi, miss = np.cumsum(rng.random(1500)).tolist(), rng.random(1500).tolist()
    curve = [[f, m] for f, m in zip(fppi, miss)]
    curve[7] = [0.0, -0.0]
    doc = {"metrics": {"mr_fppi_curve": curve}}
    assert fileio._float_rows(curve, "\n  ", "\n   ") is not None
    assert _dumped(tmp_path_factory, doc) == _stdlib(doc)


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
