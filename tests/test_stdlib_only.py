"""The library imports nothing outside the standard library (`dependencies = []`)."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "jonq"


def _top_level_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_library_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = sorted(f"{path.name}: {name}" for path in files
                     for name in _top_level_imports(ast.parse(path.read_text(encoding="utf-8")))
                     if name != "jonq" and name not in sys.stdlib_module_names)
    assert outside == []
