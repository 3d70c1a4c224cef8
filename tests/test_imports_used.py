"""Every import in a ``repro`` module is used.

A name a module imports must be referenced in that module: in code, or in
an annotation (string annotations included, which is how ``TYPE_CHECKING``
imports are used).  An import kept for its side effect says so with
``# noqa: F401``.  Package ``__init__`` files are exempt: their imports are
the package's exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _annotation_names(node: ast.AST) -> set:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def unused_imports(path: Path) -> list:
    """``(line, name)`` of each import in ``path`` that nothing references."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            span = lines[node.lineno - 1 : node.end_lineno]
            if any("noqa: F401" in line for line in span):
                continue
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_every_import_is_used_or_marked():
    found = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path)
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_scan_sees_code_annotations_and_markers(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from typing import TYPE_CHECKING, Dict, List, Optional\n"
        "import os\n"
        "import json  # noqa: F401\n"
        "if TYPE_CHECKING:\n"
        "    from x import Tracer\n"
        "def f(t: Optional['Tracer']) -> Dict:\n"
        "    return {}\n"
    )
    assert unused_imports(module) == [(1, "List"), (2, "os")]
