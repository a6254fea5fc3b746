"""The library imports nothing outside the standard library (`dependencies = []`),
and every name a library module imports is used there."""

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


def _unused_imports(path):
    """Imported names that the module never reads; names listed in __all__
    and imports on a `# noqa` line are exempt."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).partition(".")[0]
                if name not in used and "# noqa" not in lines[alias.lineno - 1]:
                    yield f"{path.name}:{alias.lineno}: {name}"


def test_library_imports_are_used():
    files = sorted(SRC.glob("*.py"))
    assert files
    assert [entry for path in files for entry in _unused_imports(path)] == []
