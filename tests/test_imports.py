"""Every module of the package uses each name it imports."""

import ast
from pathlib import Path

import bpire

MODULES = sorted(Path(bpire.__file__).parent.glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never uses as a name or as the
    root of an attribute; ``from __future__`` imports are skipped."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_guard_flags_an_unused_import():
    assert _unused_imports("import os\nimport sys\nsys.exit\n") == ["os (line 1)"]
    assert _unused_imports("from a.b import c as d, e\nd()\n") == ["e (line 1)"]
    assert _unused_imports("from __future__ import annotations\nimport a.b\na.b.c\n") == []


def test_every_module_uses_every_import():
    unused = {path.name: _unused_imports(path.read_text()) for path in MODULES}
    assert {name: names for name, names in unused.items() if names} == {}
