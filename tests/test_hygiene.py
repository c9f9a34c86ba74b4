"""Source hygiene: every name a module imports is used in it.

A stdlib `ast` scan of the package and the test modules; an unused
import is dead code that also hides what a module really depends on.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*ROOT.glob("src/prodexp/*.py"), *ROOT.glob("tests/*.py")])

# imported for a side effect: the package pins the OpenBLAS pool before
# numpy loads it
EXEMPT = {("conftest.py", "prodexp")}


def unused_imports(source):
    """Names bound by import statements and never read, in source order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0])
                         for a in node.names]
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            imported += [(node.lineno, a.asname or a.name)
                         for a in node.names]
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)}
    return [(line, name) for line, name in sorted(imported)
            if name not in used]


def test_scan_finds_unused_import():
    src = ("import os\nimport sys as system\n"
           "from math import pi, tau\nsystem.exit(pi)\n")
    assert unused_imports(src) == [(1, "os"), (3, "tau")]


@pytest.mark.parametrize("path", FILES,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    unused = [(line, name) for line, name in unused_imports(path.read_text())
              if (path.name, name) not in EXEMPT]
    assert not unused, f"{path.name}: unused imports {unused}"
