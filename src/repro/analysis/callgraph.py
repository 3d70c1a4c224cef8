"""Static call graph over a :class:`~repro.analysis.project.ProjectModel`.

Resolution is by name alone (purely syntactic, no types): a bare ``f()``
call resolves to every project module-level function ``f``, and ``x.m()``
— ``self.m()``, ``super().m()`` and ``self.a.b.m()`` alike — to every
project method named ``m``.  Builtin container methods never create edges
because they are not defined in the project.  Class constructions
(``SomeClass(...)``) do **not** add an edge to ``__init__``; the hot-path
pass flags the construction itself instead.  Over the simulator the
name-resolved graph reaches exactly the functions a typed one did.

Call sites inside *cold-guarded* regions — ``if`` blocks whose test
mentions a tracer/sanitizer hook, ``except`` handlers, ``raise``/``assert``
statements — are kept in the graph but marked ``cold`` so hot-path
reachability can skip the observability slow paths that are compiled out
when tracing is off.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set

from .project import TAG_COLD, ProjectModel

#: Substrings of names/attributes whose ``if`` guards mark a cold region.
COLD_GUARD_MARKERS = ("tracer", "sanitizer", "debug", "validate")


def _mentions_cold_marker(expr: ast.expr) -> bool:
    for node in ast.walk(expr):
        name: Optional[str] = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name is not None and any(marker in name for marker in COLD_GUARD_MARKERS):
            return True
    return False


class CallSite(NamedTuple):
    """One resolved call edge."""

    caller: str       # fid
    callee: str       # fid
    lineno: int
    cold: bool        # inside a cold-guarded region of the caller


class CallGraph:
    """Edges + reachability queries over the project's functions."""

    def __init__(self, project: ProjectModel):
        self.project = project
        self.edges: Dict[str, List[CallSite]] = {}
        for fn in project.functions.values():
            sites: List[CallSite] = []
            self._walk(fn.fid, fn.node.body, False, sites)
            self.edges[fn.fid] = sites

    def _walk(self, fid: str, body: Sequence[ast.stmt], cold: bool, out: List[CallSite]) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # nested defs analysed separately (closures flagged by RPR101)
            if isinstance(stmt, (ast.Raise, ast.Assert)):
                self._calls(fid, stmt, True, out)
            elif isinstance(stmt, ast.If):
                self._calls(fid, stmt.test, cold, out)
                self._walk(fid, stmt.body, cold or _mentions_cold_marker(stmt.test), out)
                self._walk(fid, stmt.orelse, cold, out)
            elif isinstance(stmt, ast.Try):
                self._walk(fid, stmt.body, cold, out)
                for handler in stmt.handlers:
                    self._walk(fid, handler.body, True, out)
                self._walk(fid, stmt.orelse + stmt.finalbody, cold, out)
            else:
                for child in ast.iter_child_nodes(stmt):
                    if isinstance(child, ast.stmt):
                        self._walk(fid, [child], cold, out)
                    else:
                        self._calls(fid, child, cold, out)

    def _calls(self, fid: str, tree: ast.AST, cold: bool, out: List[CallSite]) -> None:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                targets = self.project.module_functions.get(func.id, ())
            elif isinstance(func, ast.Attribute):
                targets = self.project.methods_by_name.get(func.attr, ())
            else:
                continue
            out.extend(CallSite(fid, target.fid, node.lineno, cold) for target in targets)

    # -- queries -----------------------------------------------------------

    def callees(self, fid: str) -> List[CallSite]:
        return self.edges.get(fid, [])

    def reachable(
        self,
        roots: Iterable[str],
        module_prefixes: Optional[Sequence[str]] = None,
        skip_cold: bool = True,
    ) -> Set[str]:
        """Function fids reachable from ``roots``.

        ``module_prefixes`` restricts traversal to matching modules;
        ``skip_cold`` drops edges from cold-guarded call sites and stops
        at functions tagged ``# simcheck: cold``.
        """
        project = self.project
        seen: Set[str] = set()
        stack: List[str] = [fid for fid in roots if fid in project.functions]
        while stack:
            fid = stack.pop()
            if fid in seen:
                continue
            fn = project.functions[fid]
            if module_prefixes is not None and not any(
                fn.module == p or fn.module.startswith(p + ".") for p in module_prefixes
            ):
                continue
            if skip_cold and fn.annotation is not None and fn.annotation.tag == TAG_COLD:
                continue
            seen.add(fid)
            for site in self.edges.get(fid, ()):
                if not (skip_cold and site.cold) and site.callee not in seen:
                    stack.append(site.callee)
        return seen
