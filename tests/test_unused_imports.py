"""Every name a module imports is used in it, and every definition is used somewhere.

The import check covers the package modules (not __init__.py, whose imports
are its public interface) and the test modules.  A name counts as used when
it appears as an identifier anywhere in the module, attribute bases included.
The definition check asks that each top-level function or class of a package
module, and each method or property of its classes other than a dunder, be
named, as an identifier or an attribute, in some package module other than
__init__.py, in some test module or in some benchmark script (perfbench/*.py).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for p in (ROOT / "src" / "volterra_games").glob("*.py")
                 if p.name != "__init__.py")
MODULES = sorted(SOURCES + list((ROOT / "tests").glob("*.py")))
BENCHMARK_SCRIPTS = sorted((ROOT / "perfbench").glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def identifiers(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = identifiers(tree)
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def definitions(tree: ast.Module):
    """(label, name) of each top-level function or class and each non-dunder method."""
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item.name) for item in node.body
                        if isinstance(item, DEFINITIONS) and not item.name.startswith("__"))


def unreferenced_definitions(defining: dict, others: list) -> list[str]:
    """Definitions in defining (name -> source) that no source names."""
    trees = {name: ast.parse(source) for name, source in defining.items()}
    used = set()
    for tree in [*trees.values(), *map(ast.parse, others)]:
        used |= identifiers(tree)
        used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return [f"{name}: {label}" for name, tree in trees.items()
            for label, defined in definitions(tree) if defined not in used]


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == [
        "line 1: os", "line 2: tau"]


def test_detects_an_unreferenced_definition():
    defining = {"a.py": "def kept():\n    return helper()\n\n"
                        "def helper():\n    return 1\n\nclass Dead:\n    pass\n\n"
                        "def orphan():\n    return Dead\n",
                "b.py": "import a\n\ndef run():\n    return a.kept()\n"}
    assert unreferenced_definitions(defining, ["from b import run\nrun()\n"]) == [
        "a.py: orphan"]


def test_detects_an_unreferenced_method():
    defining = {"a.py": "class Box:\n    def __init__(self):\n        self.v = 1\n\n"
                        "    def read(self):\n        return self._raw\n\n"
                        "    @property\n    def _raw(self):\n        return self.v\n\n"
                        "    def spare(self):\n        return 0\n\n"
                        "    @property\n    def idle(self):\n        return 0\n"}
    assert unreferenced_definitions(defining, ["from a import Box\nBox().read()\n"]) == [
        "a.py: Box.spare", "a.py: Box.idle"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_every_definition_is_named_somewhere():
    readers = [p.read_text() for p in MODULES + BENCHMARK_SCRIPTS if p not in SOURCES]
    assert unreferenced_definitions({p.name: p.read_text() for p in SOURCES}, readers) == []
