"""The package exports only names that something besides the tests uses.

A name counts as used when another module of the package, a demo, the
benchmark harness or the README mentions it on a line other than its own
def or class line.  Checks that only the tests run live in tests/oracles.py.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "funcfields"


def _exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names]


def _lines_outside_tests():
    files = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    files.append(ROOT / "README.md")
    return [line for path in files for line in path.read_text().splitlines()]


def test_every_export_is_used_outside_the_tests():
    lines = _lines_outside_tests()
    unused = []
    for name in _exported():
        word = re.compile(r"\b%s\b" % re.escape(name))
        own = re.compile(r"\s*(def|class)\s+%s\b" % re.escape(name))
        if not any(word.search(line) and not own.match(line) for line in lines):
            unused.append(name)
    assert unused == []
