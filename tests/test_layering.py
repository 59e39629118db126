"""The package stays layered, so no import cycle and no record can come back.

Every import statement of ``radiofusion`` sits at module level, and
``world``, which every layer imports, depends on no package module but
``geometry`` and ``errors``. A file-driven run keeps its detections, ground
truth and regions in ``world`` columns from read to write: it builds no
``Detection``, ``Annotation`` or ``RadioRegion``. A sweep that simulates its
regions draws them as columns from the ground-truth columns, so it builds
none either. Reading a well-formed estimates or regions file, and projecting
the one to the other, builds no ``RadioEstimate`` or ``RadioRegion``;
``imaging`` imports no numpy, so the projection stays scalar ``math`` per
row. Every module-level ``def`` and ``class`` of the package is used by the
package or by ``perfbench``: a helper that only tests call lives in
``tests/``. Every error class the package defines is one
that ``cli.main`` turns into exit 2. Only ``fileio`` opens a file for
writing, and it does so in one place; it spells every record from its row
templates, building a record dict only for a CSI frame's geometry.
"""

import ast
from pathlib import Path

import pytest

import radiofusion
from radiofusion import errors, fileio
from radiofusion.cli import main
from radiofusion.config import METHODS
from radiofusion.world import Annotation, Detection, Estimates, RadioEstimate, RadioRegion

PACKAGE = Path(radiofusion.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def _tree(name):
    return ast.parse((PACKAGE / name).read_text(), filename=name)


def test_every_import_is_at_module_level():
    nested = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _tree(path.name)
        top = {id(node) for node in tree.body}
        nested += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]
    assert nested == []


def test_world_is_a_leaf():
    imported = set()
    for node in ast.walk(_tree("world.py")):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "radiofusion":
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names if a.name.split(".")[0] == "radiofusion"}
    assert imported <= {"geometry", "errors"}


def test_imaging_imports_no_numpy():
    """``np.tan`` is SIMD-dispatched and differs from ``math.tan`` in the last
    bit for some angles, so a vectorised projection would tie the regions to
    the CPU: ``imaging`` projects row by row in ``math``."""
    imported = set()
    for node in ast.walk(_tree("imaging.py")):
        if isinstance(node, ast.Import):
            imported |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            imported.add(node.module.split(".")[0])
    assert imported and "numpy" not in imported


def _used_names(tree) -> set[str]:
    """The names, attribute names and imported names in ``tree``, leaving out
    a module-level definition's uses of its own name."""
    used = set()
    for statement in tree.body:
        names = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
        if isinstance(statement, DEFINITIONS):
            names.discard(statement.name)
        used |= names
    return used


def test_every_definition_is_used_outside_tests():
    defined, used = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _tree(path.name)
        defined += [(node.name, path.name) for node in tree.body
                    if isinstance(node, DEFINITIONS)]
        used |= _used_names(tree)
    for path in sorted(PERFBENCH.glob("*.py")):
        used |= _used_names(ast.parse(path.read_text(), filename=path.name))
    unused = [f"{module}: {name}" for name, module in defined if name not in used]
    assert not unused, f"used by no package module and no perfbench script: {unused}"


def test_every_error_class_exits_2():
    """``cli.main`` turns ``InvalidInputError`` and ``SchemaError`` into exit 2."""
    classes = [value for value in vars(errors).values()
               if isinstance(value, type) and value.__module__ == errors.__name__]
    stray = [c.__name__ for c in classes
             if not issubclass(c, (errors.InvalidInputError, errors.SchemaError))]
    assert classes and stray == []


WRITE_MODES = set("wax+")


def _write_opens(tree) -> list[int]:
    """The lines of calls that open a file for writing: ``open`` or ``.open``
    with a mode holding ``w``, ``a``, ``x`` or ``+``, and ``write_text`` or
    ``write_bytes``."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        modes = [arg.value for arg in node.args + [k.value for k in node.keywords if k.arg == "mode"]
                 if isinstance(arg, ast.Constant) and isinstance(arg.value, str)]
        if (name == "open" and WRITE_MODES & set("".join(modes))
                or name in ("write_text", "write_bytes")):
            lines.append(node.lineno)
    return lines


def test_only_fileio_opens_a_file_for_writing():
    opens = {path.name: _write_opens(_tree(path.name)) for path in sorted(PACKAGE.glob("*.py"))}
    assert len(opens.pop("fileio.py")) == 1
    assert {name: lines for name, lines in opens.items() if lines} == {}


def test_fileio_spells_records_only_from_the_row_templates():
    """``_to_record`` is named in one place, its call on a CSI frame's
    ``geometry``, and no ``records`` attribute is read, so no writer
    can hand ``json`` a list of record dicts."""
    tree = _tree("fileio.py")
    uses = [node for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "_to_record"]
    calls = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "_to_record"]
    assert len(uses) == 1 and calls == ["_to_record(frame.geometry)"]
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "records"] == []


def test_the_write_probe_sees_each_kind_of_open():
    tree = ast.parse("open(p, 'w')\nopen(p, mode='a')\nPath(p).open('x')\nopen(p, 'r+')\n"
                     "p.write_text(t)\np.write_bytes(b)\nopen(p)\nopen(p, 'rb')\n")
    assert _write_opens(tree) == [1, 2, 3, 4, 5, 6]


@pytest.fixture
def world(tmp_path):
    """A small annotation, detection and region file set in ``tmp_path``."""
    out = str(tmp_path)
    assert main(["synth", "--num-images", "6", "--seed", "3", "--output-dir", out]) == 0
    assert main(["simulate-regions", "--annotations", str(tmp_path / "annotations.json"),
                 "--output-dir", out]) == 0
    return tmp_path


def _built(monkeypatch, record) -> list:
    """The argument tuples of every ``record`` built from now on."""
    built = []
    init = record.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(record, "__init__", counted)
    return built


@pytest.mark.parametrize("record", [Detection, Annotation, RadioRegion])
def test_file_driven_runs_build_no_record(world, monkeypatch, record):
    built = _built(monkeypatch, record)
    for method in METHODS:
        assert main(["run", "--method", method, "--annotations", str(world / "annotations.json"),
                     "--detections", str(world / "detections.json"),
                     "--regions", str(world / "regions.json"), "--output-dir", str(world)]) == 0
    assert (world / "detections_method2_cnms.json").stat().st_size > 0
    assert built == []


@pytest.mark.parametrize("record", [Detection, Annotation, RadioRegion])
def test_a_sweep_that_simulates_its_regions_builds_no_record(world, monkeypatch, record):
    built = _built(monkeypatch, record)
    for method in ("method1+cnms", "method2+cnms"):
        out = str(world / f"sweep_{method.replace('+', '_')}.csv")
        assert main(["sweep", "--method", method, "--annotations", str(world / "annotations.json"),
                     "--detections", str(world / "detections.json"), "--param", "sigma",
                     "--values", "0.1", "0.5", "--out", out]) == 0
        assert len(Path(out).read_text().splitlines()) == 3
    assert built == []


@pytest.mark.parametrize("record", [RadioEstimate, RadioRegion])
def test_reading_and_projecting_radio_files_builds_no_record(tmp_path, monkeypatch, record):
    estimates, regions = tmp_path / "estimates.json", tmp_path / "regions.json"
    fileio.write_estimates(estimates, Estimates.from_records({
        "f0": [RadioEstimate(92.0, 88.0, 2e-8, 1.0, "p0"),
               RadioEstimate(150.0, 90.0, 2e-8, 1.0, "p1")],
        "f1": [RadioEstimate(90.0, 91.0, 3e-8, 0.5, "p0")], "f2": []}))
    built = _built(monkeypatch, record)
    assert main(["project", "--estimates", str(estimates), "--out", str(regions),
                 "--output-dir", str(tmp_path)]) == 0
    assert len(fileio.read_estimates(estimates)) == 3 and len(fileio.read_regions(regions)) == 2
    assert built == []
