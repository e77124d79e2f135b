"""Lint checks over the package's modules:

- every name a module imports is used in that module, so an import left
  behind when its last reader goes is caught;
- no module binds a sibling module's function to a name of its own, so
  a test that monkeypatches the function (criterion 10 patches
  bounds.castelnuovo_profile) reaches every caller;
- every private top-level function is called somewhere in the package,
  so a helper cannot outlive its last caller;
- no module reads a private attribute of a sibling module, so each
  module's private names stay its own."""

import ast

import pytest

from test_python_floor import SOURCES


def unused_imports(source):
    """The names that the source imports (except from __future__) and
    never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport math\nimport os.path\nfrom . import a as b\n\nos.sep\n"
    assert unused_imports(source) == ["math", "b"]


MODULES = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}


def bound_functions(source):
    """module.name for each name that the source imports with
    `from .module import name` and that is not a class of that sibling
    module, in import order."""
    bound = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level and node.module:
            sibling = ast.parse(MODULES[node.module]).body
            classes = {stmt.name for stmt in sibling if isinstance(stmt, ast.ClassDef)}
            bound += [f"{node.module}.{alias.name}" for alias in node.names if alias.name not in classes]
    return bound


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_classes_are_imported_from_sibling_modules(path):
    assert bound_functions(MODULES[path.stem]) == []


def test_the_check_finds_a_bound_function():
    source = "from . import bounds\nfrom .bounds import CastelnuovoProfile, castelnuovo_profile\n"
    assert bound_functions(source) == ["bounds.castelnuovo_profile"]


def uncalled_private_functions(modules):
    """module.name for each private top-level function of the modules
    (name -> source) whose name no call in any of them names, in module
    and source order.  A call f(...) names f, and m.f(...) names f."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    called = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    return [
        f"{name}.{stmt.name}"
        for name, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("_") and stmt.name not in called
    ]


def test_every_private_function_is_called():
    assert uncalled_private_functions(MODULES) == []


def test_the_check_finds_an_uncalled_private_function():
    modules = {
        "a": "def _kept():\n    pass\n\n\ndef _orphan():\n    pass\n\n\ndef _elsewhere():\n    pass\n\n\n"
        "def public():\n    def _nested():\n        pass\n\n    return _kept()\n",
        "b": "from . import a\n\n\ndef _unused():\n    return a._elsewhere\n\n\na._elsewhere()\n",
    }
    assert uncalled_private_functions(modules) == ["a._orphan", "b._unused"]


def sibling_private_reads(source):
    """module._name for each private (underscore-prefixed) attribute that
    the source reads off a sibling module bound by `from . import
    module [as alias]`, in source order."""
    tree = ast.parse(source)
    siblings = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level and not node.module:
            siblings.update({alias.asname or alias.name: alias.name for alias in node.names})
    reads = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in siblings
        and node.attr.startswith("_")
    ]
    reads.sort(key=lambda node: (node.lineno, node.col_offset))
    return [f"{siblings[node.value.id]}.{node.attr}" for node in reads]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_reads_a_sibling_private(path):
    assert sibling_private_reads(MODULES[path.stem]) == []


def test_the_check_finds_a_sibling_private_read():
    source = (
        "from . import bounds, sieve as s\n\n\ndef _own():\n    return s._spans(1)\n\n\n"
        "x = bounds.castelnuovo_profile(5, 3)._replace(pi1=0)\ny = bounds._cache\n_own()\n"
    )
    assert sibling_private_reads(source) == ["sieve._spans", "bounds._cache"]

