"""The package's imports stay layered, so no import cycle can come back.

Every import statement of ``radiofusion`` sits at module level, and
``world``, which every layer imports, depends on no package module but
``geometry`` and ``errors``.
"""

import ast
from pathlib import Path

import radiofusion

PACKAGE = Path(radiofusion.__file__).parent


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
