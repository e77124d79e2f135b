"""The README's library quick tour, run as a doctest, the module,
private and snake_case names the README cites, and the read counts it
gives for the `derived` suite.

`python -m doctest README.md` cannot run the tour, since the closing
fence reads as expected output of the last example; so the fenced
`python` block is extracted and run on its own.
"""

import ast
import doctest
import importlib
import inspect
import re
from collections import Counter
from pathlib import Path

from rigidity_sieve import bounds, verify

TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"
MODULES = ("bounds", "sieve", "verify", "cli", "surfaces")
# A module-qualified name such as `sieve.scan`, not preceded by a word
# character or a dot (so not `rigidity_sieve.bounds`).
CITED_NAME = re.compile(rf"(?<![\w.])({'|'.join(MODULES)})\.([A-Za-z_]\w*)")
# A bare private name in backticks, such as `_spans`.
CITED_PRIVATE = re.compile(r"`(_[A-Za-z]\w*)`")
# A bare snake_case name in backticks, such as `genus_cap` or
# `iter_witnesses(d, g, r)`.
CITED_SNAKE = re.compile(r"`([a-z][a-z0-9]*(?:_[a-z0-9]+)+)(?:\([^`]*\))?`")
# The `derived` paragraph's read counts on the default universe: form
# reads, profile reads, and the profile reads at r = 4.
DERIVED_READS = re.compile(
    r"the suite makes ([\d,]+) form reads and\s+([\d,]+) profile reads \(([\d,]+) of them at r = 4"
)


def test_quick_tour_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    test = doctest.DocTestParser().get_doctest(blocks[0], {}, "README quick tour", str(README), 0)
    assert test.examples
    out = []
    failed, attempted = doctest.DocTestRunner().run(test, out=out.append)
    assert (failed, attempted) == (0, len(test.examples)), "".join(out)


def test_cited_module_names_resolve():
    cited = sorted(set(CITED_NAME.findall(README.read_text(encoding="utf-8"))))
    assert len(cited) >= 20
    missing = [f"{module}.{name}" for module, name in cited if not hasattr(importlib.import_module(f"rigidity_sieve.{module}"), name)]
    assert missing == []


def test_cited_private_names_resolve():
    cited = sorted(set(CITED_PRIVATE.findall(README.read_text(encoding="utf-8"))))
    assert cited
    modules = [importlib.import_module(f"rigidity_sieve.{module}") for module in MODULES]
    missing = [name for name in cited if not any(hasattr(module, name) for module in modules)]
    assert missing == []


def test_cited_snake_case_names_resolve():
    # Each resolves to an attribute of a package module, a top-level def
    # of a test file (the naive oracles and mutations) or a parameter of
    # a package function.
    cited = sorted(set(CITED_SNAKE.findall(README.read_text(encoding="utf-8"))))
    assert len(cited) >= 20
    modules = [importlib.import_module(f"rigidity_sieve.{module}") for module in MODULES]
    known = {name for module in modules for name in vars(module)}
    for path in TESTS.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        known.update(node.name for node in tree.body if isinstance(node, ast.FunctionDef))
    for module in modules:
        for function in vars(module).values():
            if callable(function) and not isinstance(function, type) and getattr(function, "__module__", None) == module.__name__:
                known.update(inspect.signature(function).parameters)
    missing = [name for name in cited if name not in known]
    assert missing == []


def test_derived_read_counts_are_the_counted_ones(monkeypatch):
    # The counts on r = 4..10, alpha <= 60 and the default m_max, as
    # verify_derived_claims makes them.
    [stated] = DERIVED_READS.findall(README.read_text(encoding="utf-8"))
    reads = Counter()

    def counted(key, function):
        def wrapper(*args):
            reads[key] += 1
            return function(*args)

        return wrapper

    monkeypatch.setattr(bounds, "castelnuovo_profile", counted("profile", bounds.castelnuovo_profile))
    monkeypatch.setattr(verify, "_linear_form", counted("form", verify._linear_form))
    assert verify.verify_derived_claims(4, 60).ok
    at_r4 = reads["profile"]
    for r in range(5, 11):
        assert verify.verify_derived_claims(r, 60).ok
    assert tuple(int(n.replace(",", "")) for n in stated) == (reads["form"], reads["profile"], at_r4)
