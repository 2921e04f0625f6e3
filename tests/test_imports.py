"""Every module of the package, other than `__init__.py`, uses each name
that it imports, and only `space.py` reads the private attributes of a
space."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "roelab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def private(name):
    return name.startswith("_") and not name.endswith("__")


def private_names(source):
    """Private methods and `self._x` attributes that `source` defines."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            names |= {item.name for item in node.body
                      if isinstance(item, ast.FunctionDef)
                      and private(item.name)}
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name)
              and node.value.id == "self" and private(node.attr)):
            names.add(node.attr)
    return names


def unused_imports(source):
    """Names bound by the imports of `source` that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.asname or alias.name.split(".")[0]
                         for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_finds_an_unused_import():
    assert unused_imports("import json\nimport math as m\n"
                          "from os import path, sep\nprint(m.pi, sep)\n") \
        == ["json", "path"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text()) == []


def test_finds_private_space_names():
    assert private_names("class A:\n    def __init__(self):\n"
                         "        self._a = self.b = 1\n"
                         "    def _c(self):\n        pass\n") == {"_a", "_c"}


def test_only_space_reads_private_space_attributes():
    space_private = private_names((PACKAGE / "space.py").read_text())
    assert {"_dist", "_coords", "_offsets"} <= space_private
    reads = [f"{module.name}:{node.lineno} .{node.attr}"
             for module in MODULES if module.name != "space.py"
             for node in ast.walk(ast.parse(module.read_text()))
             if isinstance(node, ast.Attribute)
             and node.attr in space_private]
    assert reads == []
