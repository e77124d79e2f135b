"""Every name a package module imports is used in that module, so an
import left behind when its last reader goes is caught."""

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
