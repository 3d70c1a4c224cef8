"""The shared whole-program model behind simcheck's analysis passes.

A :class:`ProjectModel` is built once per ``--check-all`` run and handed to
every pass: per-module ASTs, a symbol table of classes and functions, and
the ``# simcheck:`` annotation index.

The model is deliberately *syntactic*: everything is derived from the ASTs
of one package tree, without importing (or executing) any simulator code.

Annotation grammar (one per line, reason optional)::

    # simcheck: cold
    # simcheck: hot-ok -- work-stealing upper-bound study

``cold`` (on a ``def``) removes a function from the cycle-hot set, and
``hot-ok`` (on a ``def`` or an offending line) accepts hot-path findings
with a recorded justification.  See ``docs/static_analysis.md``.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Set

#: ``# simcheck: <tag>`` with an optional ``-- reason`` tail.
SIMCHECK_RE = re.compile(
    r"#\s*simcheck:\s*(?P<tag>[a-z][a-z-]*)(?:\s*--\s*(?P<reason>.*\S))?"
)

TAG_COLD = "cold"
TAG_HOT_OK = "hot-ok"

KNOWN_TAGS = frozenset({TAG_COLD, TAG_HOT_OK})

#: Builtin factory calls that allocate a fresh mutable container.
MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "bytearray", "deque", "defaultdict", "OrderedDict", "Counter"}
)


class Annotation(NamedTuple):
    """One ``# simcheck:`` comment."""

    tag: str
    reason: Optional[str]


@dataclass
class ModuleInfo:
    """One parsed module of the project."""

    name: str                       # dotted ("repro.core.sm")
    path: str                       # filesystem path as given
    annotations: Dict[int, Annotation]  # line number -> simcheck annotation


@dataclass
class FunctionInfo:
    """A module-level function or a method."""

    name: str                      # bare name
    qualname: str                  # "Class.method" or "function"
    fid: str                       # globally unique: "<module>.<qualname>"
    module: str
    path: str
    node: ast.FunctionDef
    class_name: Optional[str]
    annotation: Optional[Annotation]  # simcheck tag on the ``def`` line


class ProjectModel:
    """Symbol table + annotation index over one package tree."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.classes: Set[str] = set()
        self.functions: Dict[str, FunctionInfo] = {}        # by fid
        self.module_functions: Dict[str, List[FunctionInfo]] = {}  # bare name
        self.methods_by_name: Dict[str, List[FunctionInfo]] = {}

    def is_project_class(self, name: str) -> bool:
        return name in self.classes

    def annotation_at(self, module: str, line: int) -> Optional[Annotation]:
        return self.modules[module].annotations.get(line)


def _scan_annotations(source: str) -> Dict[int, Annotation]:
    """``# simcheck:`` annotations by line, from real comment tokens only.

    Tokenizing (rather than regex-scanning raw lines) keeps annotation
    *examples* inside docstrings and string literals from registering as
    live annotations.
    """
    out: Dict[int, Annotation] = {}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            match = SIMCHECK_RE.search(tok.string)
            if match is not None:
                out[tok.start[0]] = Annotation(match.group("tag"), match.group("reason"))
    return out


def _module_name(root: Path, path: Path) -> str:
    parts = [root.name, *path.relative_to(root).parts]
    if parts[-1] == "__init__.py":
        parts.pop()
    else:
        parts[-1] = parts[-1][: -len(".py")]
    return ".".join(parts)


def _function(module: ModuleInfo, node: ast.FunctionDef, class_name: Optional[str]) -> FunctionInfo:
    qualname = f"{class_name}.{node.name}" if class_name else node.name
    return FunctionInfo(
        name=node.name,
        qualname=qualname,
        fid=f"{module.name}.{qualname}",
        module=module.name,
        path=module.path,
        node=node,
        class_name=class_name,
        annotation=module.annotations.get(node.lineno),
    )


def build_project(root: Path) -> ProjectModel:
    """Parse every module under ``root`` into a :class:`ProjectModel`.

    A module that does not parse raises its :class:`SyntaxError`.
    """
    project = ProjectModel()
    for file in sorted(root.rglob("*.py")):
        source = file.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(file))
        module = ModuleInfo(_module_name(root, file), str(file), _scan_annotations(source))
        project.modules[module.name] = module
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                project.classes.add(node.name)
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        fn = _function(module, item, node.name)
                        project.functions[fn.fid] = fn
                        project.methods_by_name.setdefault(item.name, []).append(fn)
            elif isinstance(node, ast.FunctionDef):
                fn = _function(module, node, None)
                project.functions[fn.fid] = fn
                project.module_functions.setdefault(node.name, []).append(fn)
    return project
