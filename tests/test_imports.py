"""Every name a module of the package or of the tests imports is read.

A name counts as read when the module loads it anywhere (an annotation
too) or lists it in its `__all__`.  An import marked `# noqa: F401` is
kept on purpose and exempt.
"""

import ast
import importlib
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "aqwalk")
TESTS = os.path.join(ROOT, "tests")

MODULES = sorted([os.path.join(PACKAGE, name) for name in os.listdir(PACKAGE) if name.endswith(".py")]
                 + [os.path.join(TESTS, name) for name in os.listdir(TESTS) if name.endswith(".py")])


def _exported(tree, path: str) -> set:
    """The names in the module's __all__: a literal list, or else the list the imported module builds."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            try:
                return set(ast.literal_eval(node.value))
            except ValueError:  # aqwalk/__init__.py builds __all__ from its globals
                name = os.path.splitext(os.path.relpath(path, os.path.dirname(PACKAGE)))[0]
                return set(importlib.import_module(name.replace(os.sep, ".").removesuffix(".__init__")).__all__)
    return set()


def unused_imports(path: str) -> list:
    """(line, name) of each name the module at path imports and never reads."""
    with open(path) as fh:
        source = fh.read()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree, path)
    return [(line, name) for line, name in imported if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: os.path.relpath(path, ROOT))
def test_no_unused_imports(path):
    assert unused_imports(path) == []
