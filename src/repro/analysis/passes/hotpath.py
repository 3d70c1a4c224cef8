"""RPR1xx — hot-path discipline over the cycle-hot call graph.

PRs 6–7 bought their 1.27–1.61x by removing per-cycle allocation and
attribute chasing from ``GPU._advance`` → ``SM.step`` → ``SubCore.issue``.
This pass keeps those wins: it computes the static call graph rooted at
those three functions, restricted to the model packages, and flags inside
every reachable ("cycle-hot") function:

* **RPR101** — allocation: list/dict/set displays, comprehensions and
  generator expressions, mutable-factory calls (``list()``, ``dict()``,
  ``OrderedDict()``, …), ``sorted()``, project-class constructions,
  ``[x] * n``, lambdas and nested ``def``\\ s (closure objects).
* **RPR102** — ``try``/``except`` inside a loop (exception-table setup
  and handler dispatch per iteration).
* **RPR103** — the same ≥2-hop attribute chain (``self.a.b.c``) read three
  or more times in one function; hoist the prefix into a local.

Regions that only run with observability enabled — ``if`` blocks whose
test mentions a tracer/sanitizer/debug hook — and ``raise``/``assert``
statements are excluded: they are off on measured runs.  Inherent
per-cycle work (a scheduler policy that must materialize a sorted pool)
is accepted with ``# simcheck: hot-ok -- reason`` on the offending line,
or on the ``def`` line to accept a whole function.  **RPR104** then keeps
the annotations honest: a ``hot-ok``/``persistent`` tag that no longer
suppresses a live finding — or an unknown tag — is itself a finding.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple

from ..callgraph import _mentions_cold_marker
from ..project import (
    KNOWN_TAGS,
    MUTABLE_FACTORIES,
    TAG_HOT_OK,
    TAG_PERSISTENT,
    FunctionInfo,
    ProjectModel,
)
from .base import AnalysisContext, AnalysisPass

#: (class, method) roots of the per-cycle path.
HOT_ROOTS = (
    ("GPU", "_advance"),
    ("StreamingMultiprocessor", "step"),
    ("SubCore", "issue"),
)

#: Packages whose functions can be cycle-hot (observability and analysis
#: tooling are excluded by construction).
HOT_PREFIXES = ("repro.core", "repro.gpu", "repro.memory", "repro.trace", "repro.isa", "repro.regalloc")

#: RPR103 fires when one chain is re-read at least this many times.
CHAIN_THRESHOLD = 3


def find_hot_roots(project: ProjectModel) -> List[str]:
    roots: List[str] = []
    for class_name, method in HOT_ROOTS:
        for fn in project.methods_by_name.get(method, ()):
            if fn.class_name == class_name:
                roots.append(fn.fid)
    return roots


def hot_functions(ctx: AnalysisContext) -> List[FunctionInfo]:
    """Cycle-hot functions: reachable from the roots via non-cold edges."""
    reachable = ctx.graph.reachable(
        find_hot_roots(ctx.project), module_prefixes=HOT_PREFIXES, skip_cold=True
    )
    return sorted(
        (ctx.project.functions[fid] for fid in reachable),
        key=lambda fn: (fn.path, fn.node.lineno),
    )


class _HotScanner:
    """Collect RPR101/102/103 sites in one function, skipping cold regions."""

    def __init__(self, project: ProjectModel, fn: FunctionInfo):
        self.project = project
        self.fn = fn
        self.allocations: List[Tuple[int, str]] = []
        self.try_in_loop: List[int] = []
        self.chains: Dict[str, List[int]] = {}

    # -- drivers -----------------------------------------------------------

    def scan(self) -> None:
        self._block(self.fn.node.body, in_loop=False)

    def _block(self, body: List[ast.stmt], in_loop: bool) -> None:
        for stmt in body:
            self._stmt(stmt, in_loop)

    def _stmt(self, stmt: ast.stmt, in_loop: bool) -> None:
        if isinstance(stmt, (ast.Raise, ast.Assert)):
            return  # error paths terminate the run; not cycle-rate work
        if isinstance(stmt, ast.If):
            if not _mentions_cold_marker(stmt.test):
                self._expr(stmt.test)
                self._block(stmt.body, in_loop)
            self._block(stmt.orelse, in_loop)
            return
        if isinstance(stmt, (ast.For, ast.While)):
            if isinstance(stmt, ast.For):
                self._expr(stmt.iter)
            else:
                self._expr(stmt.test)
            self._block(stmt.body, in_loop=True)
            self._block(stmt.orelse, in_loop)
            return
        if isinstance(stmt, ast.Try):
            if in_loop:
                self.try_in_loop.append(stmt.lineno)
            self._block(stmt.body, in_loop)
            for handler in stmt.handlers:
                self._block(handler.body, in_loop)
            self._block(stmt.orelse, in_loop)
            self._block(stmt.finalbody, in_loop)
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.allocations.append((stmt.lineno, f"nested def {stmt.name}() builds a closure"))
            return
        for node in ast.iter_child_nodes(stmt):
            if isinstance(node, ast.expr):
                self._expr(node)
            elif isinstance(node, ast.stmt):
                self._stmt(node, in_loop)

    # -- expressions -------------------------------------------------------

    def _expr(self, expr: ast.expr) -> None:
        self._visit_expr(expr)

    def _visit_expr(self, node: ast.expr) -> None:
        if isinstance(node, ast.Attribute):
            chain = self._chain_text(node)
            if chain is not None:
                # Record the maximal chain only; don't recurse into its
                # spine (that would double-count every prefix).
                self.chains.setdefault(chain, []).append(node.lineno)
            else:
                self._visit_expr(node.value)
            return
        if isinstance(node, ast.Set):
            # Unlike List, Set has no ``ctx`` — a set display is always a load.
            self.allocations.append((node.lineno, "set display allocates per call"))
        elif isinstance(node, ast.List):
            if isinstance(node.ctx, ast.Load):
                self.allocations.append((node.lineno, "list display allocates per call"))
        elif isinstance(node, ast.Dict):
            self.allocations.append((node.lineno, "dict display allocates per call"))
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            kind = {
                ast.ListComp: "list comprehension",
                ast.SetComp: "set comprehension",
                ast.DictComp: "dict comprehension",
                ast.GeneratorExp: "generator expression",
            }[type(node)]
            self.allocations.append((node.lineno, f"{kind} allocates per evaluation"))
            # comprehension bodies are part of the allocation; don't recurse.
            return
        elif isinstance(node, ast.Lambda):
            self.allocations.append((node.lineno, "lambda builds a closure object"))
            return
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            if isinstance(node.left, ast.List) or isinstance(node.right, ast.List):
                self.allocations.append((node.lineno, "[x] * n allocates a fresh list"))
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                name = func.id
                if name in MUTABLE_FACTORIES:
                    self.allocations.append((node.lineno, f"{name}() allocates per call"))
                elif name == "sorted":
                    self.allocations.append((node.lineno, "sorted() builds a fresh list"))
                elif self.project.is_project_class(name):
                    self.allocations.append((node.lineno, f"constructs {name} per call"))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._visit_expr(child)
            elif isinstance(child, ast.keyword):
                # keyword arguments are not ``ast.expr`` nodes themselves;
                # without this, ``x.sort(key=lambda ...)`` hides the lambda.
                self._visit_expr(child.value)

    def _chain_text(self, node: ast.Attribute) -> Optional[str]:
        """Dotted text of a ≥2-hop read chain rooted at a bare name."""
        if not isinstance(node.ctx, ast.Load):
            return None
        parts: List[str] = [node.attr]
        cur: ast.expr = node.value
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if not isinstance(cur, ast.Name) or len(parts) < 2:
            return None
        parts.append(cur.id)
        return ".".join(reversed(parts))


class HotPathPass(AnalysisPass):
    name = "hot-path"

    def run(self, ctx: AnalysisContext) -> None:
        for fn in hot_functions(ctx):
            self._check_function(ctx, fn)
        self._check_annotations(ctx)

    # -- per-function ------------------------------------------------------

    def _accepted(self, ctx: AnalysisContext, fn: FunctionInfo, line: int) -> bool:
        ann = ctx.project.annotation_at(fn.module, line)
        if ann is not None and ann.tag == TAG_HOT_OK:
            ctx.use(fn.module, line)
            return True
        if fn.annotation is not None and fn.annotation.tag == TAG_HOT_OK:
            ctx.use(fn.module, fn.node.lineno)
            return True
        return False

    def _check_function(self, ctx: AnalysisContext, fn: FunctionInfo) -> None:
        scanner = _HotScanner(ctx.project, fn)
        scanner.scan()
        for line, what in scanner.allocations:
            if self._accepted(ctx, fn, line):
                continue
            ctx.add(
                "RPR101",
                fn.path,
                line,
                f"cycle-hot {fn.qualname}(): {what}",
            )
        for line in scanner.try_in_loop:
            if self._accepted(ctx, fn, line):
                continue
            ctx.add(
                "RPR102",
                fn.path,
                line,
                f"cycle-hot {fn.qualname}(): try/except inside a loop",
            )
        for chain, lines in sorted(scanner.chains.items()):
            if len(lines) < CHAIN_THRESHOLD:
                continue
            line = min(lines)
            if self._accepted(ctx, fn, line):
                continue
            prefix = chain.rsplit(".", 1)[0]
            ctx.add(
                "RPR103",
                fn.path,
                line,
                f"cycle-hot {fn.qualname}(): attribute chain '{chain}' read "
                f"{len(lines)}x; hoist '{prefix}' into a local",
            )

    # -- annotation hygiene (RPR104) ---------------------------------------

    def _check_annotations(self, ctx: AnalysisContext) -> None:
        for module in sorted(ctx.project.modules):
            info = ctx.project.modules[module]
            for line in sorted(info.annotations):
                ann = info.annotations[line]
                if ann.tag not in KNOWN_TAGS:
                    ctx.add(
                        "RPR104",
                        info.path,
                        line,
                        f"unknown simcheck tag '{ann.tag}' "
                        f"(known: {', '.join(sorted(KNOWN_TAGS))})",
                    )
                elif ann.tag in (TAG_HOT_OK, TAG_PERSISTENT) and not ctx.used(module, line):
                    ctx.add(
                        "RPR104",
                        info.path,
                        line,
                        f"stale '# simcheck: {ann.tag}' annotation: it no "
                        "longer suppresses any finding; remove it",
                    )
