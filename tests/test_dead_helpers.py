"""Every function, class and method of the package is named outside the tests.

An `ast` scan of `src/greenlight/*.py` for top-level functions and classes
and for the methods of top-level classes.  Each name must appear in
`src/`, `tools/`, `perfbench/` or `README.md` more often than it is
defined there, so a helper that only tests call fails this check and is
deleted.  A package's `__init__.py` does not count: its re-exports name a
helper without calling it.  Dunder methods are called by Python itself and
are not checked.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "greenlight").glob("*.py"))
NAMED_IN = PACKAGE + sorted((ROOT / "tools").glob("*.py")) + sorted(
    (ROOT / "perfbench").rglob("*.py")) + [ROOT / "README.md"]


def uses(paths: list[Path]) -> list[str]:
    """The texts that can name a use: every file but a package's re-exports."""
    return [path.read_text() for path in paths if path.name != "__init__.py"]


def definitions(source: str) -> list[str]:
    """Top-level function and class names, and the method names of
    top-level classes, dunders left out; one entry per definition."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, defs):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [item.name for item in node.body if isinstance(item, defs[:2])]
    return [name for name in names if not name.startswith("__")]


def unnamed_outside_tests(defined: list[str], texts: list[str]) -> list[str]:
    """The defined names that `texts` name no more often than they are defined."""
    words = Counter(word for text in texts for word in re.findall(r"\w+", text))
    return sorted(name for name, count in Counter(defined).items() if words[name] <= count)


def test_scan_finds_the_package():
    assert {p.name for p in PACKAGE} >= {"config.py", "sim.py", "harness.py"}
    assert ROOT / "perfbench" / "workloads.py" in NAMED_IN


def test_no_definition_is_named_only_in_tests():
    defined = [name for path in PACKAGE for name in definitions(path.read_text())]
    assert unnamed_outside_tests(defined, uses(NAMED_IN)) == []


def test_scan_flags_a_name_used_only_by_its_definition():
    source = ("class Sim:\n"
              "    def __init__(self):\n"
              "        self.step()\n"
              "    def step(self): pass\n"
              "    def helper(self): pass\n"
              "def used(): pass\n"
              "def unused(): pass\n")
    defined = definitions(source)
    assert defined == ["Sim", "step", "helper", "used", "unused"]
    assert unnamed_outside_tests(defined, [source, "Sim().used()"]) == ["helper", "unused"]


def test_scan_flags_a_name_only_re_exported(tmp_path):
    (tmp_path / "demand.py").write_text("def realize(): pass\ndef helper(): pass\n")
    (tmp_path / "__init__.py").write_text("from .demand import (\n    helper,\n    realize,\n)\n")
    (tmp_path / "harness.py").write_text("from .demand import realize\nrealize()\n")
    defined = definitions((tmp_path / "demand.py").read_text())
    assert unnamed_outside_tests(defined, uses(sorted(tmp_path.glob("*.py")))) == ["helper"]
