"""Every imported name is read somewhere in the module that imports it.

An `ast` scan of the package modules, `tools/` and `tests/`.  The package's
`__init__.py` imports names to re-export them, and `perfbench/` is kept
as it is, so neither is scanned.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCANNED = sorted(
    [p for p in (ROOT / "src" / "greenlight").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tools").glob("*.py"))
    + list((ROOT / "tests").glob("*.py"))
)


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements that no expression reads.

    A dotted ``import a.b`` binds ``a``; ``from __future__`` binds nothing.
    A name listed in ``__all__`` counts as read.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= {elt.value for elt in getattr(node.value, "elts", [])
                     if isinstance(elt, ast.Constant)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read]


def test_scan_finds_the_modules():
    names = {p.name for p in SCANNED}
    assert {"config.py", "sim.py", "compare_digests.py", "test_imports.py"} <= names
    assert "__init__.py" not in names


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_an_unread_import_and_spares_read_ones():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from typing import Any, Sequence\n"
              "x: Sequence = np.zeros(3)\n")
    assert unused_imports(source) == ["line 2: os", "line 4: Any"]
