"""The package source parses at the least Python that pyproject.toml
declares, so syntax newer than that floor cannot slip in while the
tests run on a later Python."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "rigidity_sieve").glob("*.py"))


def declared_floor():
    """(major, minor) of pyproject.toml's requires-python = ">=X.Y"."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups()
    return int(major), int(minor)


def test_readme_states_the_declared_floor():
    major, minor = declared_floor()
    assert f"Python ≥ {major}.{minor}," in (ROOT / "README.md").read_text(encoding="utf-8")


def test_every_module_is_checked():
    assert {path.name for path in SOURCES} >= {"__init__.py", "bounds.py", "cli.py", "sieve.py", "surfaces.py", "verify.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_source_parses_at_the_declared_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=declared_floor())


def test_the_floor_check_rejects_newer_syntax():
    # except* (exception groups) arrived in Python 3.11.
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
