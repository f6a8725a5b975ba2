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


def test_every_module_import_is_read():
    # a top-level import that no expression reads (an ast.Name in Load
    # context) is dead; a field or keyword of the same name can hide it
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for a in node.names:
                    name = (a.asname or a.name).split(".")[0]
                    if name not in read:
                        unread.append("%s: %s" % (path.name, name))
    assert unread == []
