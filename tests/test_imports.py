"""Every module-level import in `src/awr` and `tests` is used by its module.

A name bound by a top-level `import` or `from ... import` must be read
somewhere in the module, or be listed in its `__all__`.  `from
__future__` imports are directives, not bindings, and are skipped.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "awr"
MODULES = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))


def _module_id(path):
    return path.name if path.parent == SRC else f"tests/{path.name}"


def _imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_modules_are_found():
    ids = {_module_id(p) for p in MODULES}
    assert {"catalog.py", "evaluate.py", "tests/conftest.py", "tests/test_imports.py"} <= ids


@pytest.mark.parametrize("path", MODULES, ids=_module_id)
def test_no_unused_module_level_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    unused = [(name, line) for name, line in _imported_names(tree) if name not in used]
    assert not unused, f"{path.name}: unused imports {unused}"
