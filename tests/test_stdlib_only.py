"""The runtime package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qsmooth"


def _absolute_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_every_absolute_import_is_stdlib():
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) >= 10
    outside = {
        (path.name, name)
        for path in sources
        for name in _absolute_imports(path)
        if name not in sys.stdlib_module_names
    }
    assert not outside, f"non-stdlib imports: {sorted(outside)}"
