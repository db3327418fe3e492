"""Every module of the package uses each name it imports, and the package
loads every private name that one of its modules defines."""

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


def _unloaded_privates(sources: dict[str, str]) -> list[str]:
    """The module-level private names (``_x``, not dunder) that a module of
    ``sources`` (module name to source) defines by ``def``, ``class`` or
    assignment, and that no module loads as a name, as an attribute or by
    an import."""
    defined, loaded = {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [node.id for target in targets for node in ast.walk(target)
                         if isinstance(node, ast.Name)]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.endswith("__"):
                    defined[f"{module}.{name}"] = (name, stmt.lineno)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                loaded.update(alias.name for alias in node.names)
    return sorted(f"{key} (line {line})" for key, (name, line) in defined.items()
                  if name not in loaded)


def test_guard_flags_an_unloaded_private_name():
    sources = {
        "a": "_x = 1\n_y, _z = 2, 3\ndef _f(): return _y\nclass _C: pass\n__v__ = _w = 4\n",
        "b": "from .a import _C\nimport a\na._z\n",
    }
    assert _unloaded_privates(sources) == ["a._f (line 3)", "a._w (line 5)", "a._x (line 1)"]
    assert _unloaded_privates({"a": "def _f(): pass\n_f()\n"}) == []


def test_every_private_name_is_loaded():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert _unloaded_privates(sources) == []
