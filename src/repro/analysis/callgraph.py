"""Static call graph over a :class:`~repro.analysis.project.ProjectModel`.

Resolution strategy (documented limitation: purely syntactic, no dataflow):

1. **Typed receivers.** ``self.m()`` resolves on the caller's class;
   ``self.a.b.m()`` follows the inferred ``__init__`` attribute types;
   local names pick up types from parameter annotations, ``x = self.attr``,
   ``x = SomeClass(...)`` / annotated factory calls, and ``for x in <typed
   container>`` loops.  A typed receiver resolves to every implementation
   in that class's project subtree (class-hierarchy analysis).
2. **Name-based CHA fallback.** An untyped receiver ``x.m()`` falls back
   to *all* project methods named ``m`` — but only when ``m`` is defined
   somewhere in the project, so builtin container methods never create
   edges.
3. Bare ``f()`` calls resolve to project module-level functions.
   Class constructions (``SomeClass(...)``) do **not** add an edge to
   ``__init__``; the hot-path pass flags the construction itself instead.

Call sites inside *cold-guarded* regions — ``if`` blocks whose test
mentions a tracer/sanitizer hook, ``raise``/``assert`` statements — are
kept in the graph but marked ``cold`` so hot-path reachability can skip
the observability slow paths that are compiled out when tracing is off.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set

from .project import (
    TAG_COLD,
    FunctionInfo,
    ProjectModel,
    TypeRef,
)

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


@dataclass(frozen=True)
class CallSite:
    """One resolved call edge."""

    caller: str       # fid
    callee: str       # fid
    lineno: int
    cold: bool        # inside a cold-guarded region of the caller
    via_fallback: bool  # resolved by name-based CHA, not a typed receiver


class _LocalEnv:
    """Forward-scan local variable types for one function body."""

    def __init__(self, project: ProjectModel, fn: FunctionInfo):
        self.project = project
        self.types: Dict[str, TypeRef] = {}
        args = list(fn.node.args.posonlyargs) + list(fn.node.args.args) + list(
            fn.node.args.kwonlyargs
        )
        for arg in args:
            if arg.arg == "self":
                continue
            ref = project.resolve_annotation(arg.annotation)
            if ref is not None:
                self.types[arg.arg] = ref

    def learn_assign(self, target: ast.expr, value: ast.expr, class_name: Optional[str]) -> None:
        if not isinstance(target, ast.Name):
            return
        ref = self._value_type(value, class_name)
        if ref is not None:
            self.types[target.id] = ref

    def learn_loop(self, target: ast.expr, iterable: ast.expr, class_name: Optional[str]) -> None:
        if not isinstance(target, ast.Name):
            return
        ref = self._value_type(iterable, class_name)
        if ref is None and isinstance(iterable, ast.Call):
            func = iterable.func
            if isinstance(func, ast.Attribute) and func.attr == "values":
                ref = self._value_type(func.value, class_name)
        if ref is not None and ref.container is not None:
            self.types[target.id] = TypeRef(None, ref.cls)

    def _value_type(self, expr: ast.expr, class_name: Optional[str]) -> Optional[TypeRef]:
        project = self.project
        if isinstance(expr, ast.Name):
            if expr.id == "self" and class_name is not None:
                return TypeRef(None, class_name)
            return self.types.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self._value_type(expr.value, class_name)
            if base is None or base.container is not None:
                return None
            attrs = project.flattened_attrs(base.cls)
            info = attrs.get(expr.attr)
            return info.type if info is not None else None
        if isinstance(expr, ast.Subscript):
            base = self._value_type(expr.value, class_name)
            if base is not None and base.container is not None:
                return TypeRef(None, base.cls)
            return None
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name):
                if project.is_project_class(func.id):
                    return TypeRef(None, func.id)
                return project.function_return_type(func.id)
            return None
        if isinstance(expr, ast.IfExp):
            body = self._value_type(expr.body, class_name)
            return body if body is not None else self._value_type(expr.orelse, class_name)
        return None

    def receiver_type(self, expr: ast.expr, class_name: Optional[str]) -> Optional[TypeRef]:
        return self._value_type(expr, class_name)


class CallGraph:
    """Edges + reachability queries over the project's functions."""

    def __init__(self, project: ProjectModel):
        self.project = project
        self.edges: Dict[str, List[CallSite]] = {}
        self._build()

    # -- construction ------------------------------------------------------

    def _build(self) -> None:
        for fn in self.project.functions.values():
            self.edges[fn.fid] = self._extract(fn)

    def _extract(self, fn: FunctionInfo) -> List[CallSite]:
        env = _LocalEnv(self.project, fn)
        sites: List[CallSite] = []
        self._walk_block(fn, fn.node.body, env, cold=False, out=sites)
        return sites

    def _walk_block(
        self,
        fn: FunctionInfo,
        body: Sequence[ast.stmt],
        env: _LocalEnv,
        cold: bool,
        out: List[CallSite],
    ) -> None:
        for stmt in body:
            self._walk_stmt(fn, stmt, env, cold, out)

    def _walk_stmt(
        self,
        fn: FunctionInfo,
        stmt: ast.stmt,
        env: _LocalEnv,
        cold: bool,
        out: List[CallSite],
    ) -> None:
        if isinstance(stmt, (ast.Raise, ast.Assert)):
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    self._resolve_call(fn, node, env, True, out)
            return
        if isinstance(stmt, ast.If):
            guard_cold = cold or _mentions_cold_marker(stmt.test)
            self._collect_expr(fn, stmt.test, env, cold, out)
            self._walk_block(fn, stmt.body, env, guard_cold, out)
            self._walk_block(fn, stmt.orelse, env, cold, out)
            return
        if isinstance(stmt, ast.For):
            env.learn_loop(stmt.target, stmt.iter, fn.class_name)
            self._collect_expr(fn, stmt.iter, env, cold, out)
            self._walk_block(fn, stmt.body, env, cold, out)
            self._walk_block(fn, stmt.orelse, env, cold, out)
            return
        if isinstance(stmt, ast.While):
            self._collect_expr(fn, stmt.test, env, cold, out)
            self._walk_block(fn, stmt.body, env, cold, out)
            self._walk_block(fn, stmt.orelse, env, cold, out)
            return
        if isinstance(stmt, ast.Try):
            self._walk_block(fn, stmt.body, env, cold, out)
            for handler in stmt.handlers:
                self._walk_block(fn, handler.body, env, True, out)
            self._walk_block(fn, stmt.orelse, env, cold, out)
            self._walk_block(fn, stmt.finalbody, env, cold, out)
            return
        if isinstance(stmt, (ast.With,)):
            for item in stmt.items:
                self._collect_expr(fn, item.context_expr, env, cold, out)
            self._walk_block(fn, stmt.body, env, cold, out)
            return
        if isinstance(stmt, ast.Assign):
            if len(stmt.targets) == 1:
                env.learn_assign(stmt.targets[0], stmt.value, fn.class_name)
            self._collect_expr(fn, stmt.value, env, cold, out)
            return
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            env.learn_assign(stmt.target, stmt.value, fn.class_name)
            self._collect_expr(fn, stmt.value, env, cold, out)
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested defs analysed separately (closures flagged by RPR101)
        # Generic: scan contained expressions.
        for node in ast.iter_child_nodes(stmt):
            if isinstance(node, ast.expr):
                self._collect_expr(fn, node, env, cold, out)
            elif isinstance(node, ast.stmt):
                self._walk_stmt(fn, node, env, cold, out)

    def _collect_expr(
        self,
        fn: FunctionInfo,
        expr: ast.expr,
        env: _LocalEnv,
        cold: bool,
        out: List[CallSite],
    ) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                self._resolve_call(fn, node, env, cold, out)

    def _resolve_call(
        self,
        fn: FunctionInfo,
        call: ast.Call,
        env: _LocalEnv,
        cold: bool,
        out: List[CallSite],
    ) -> None:
        project = self.project
        func = call.func
        if isinstance(func, ast.Name):
            for target in project.module_functions.get(func.id, ()):
                out.append(CallSite(fn.fid, target.fid, call.lineno, cold, False))
            return
        if not isinstance(func, ast.Attribute):
            return
        method = func.attr
        recv = func.value
        # ``super().m()``
        if (
            isinstance(recv, ast.Call)
            and isinstance(recv.func, ast.Name)
            and recv.func.id == "super"
            and fn.class_name is not None
        ):
            mro = project.mro(fn.class_name)
            past_own = False
            for info in mro:
                if info.name == fn.class_name:
                    past_own = True
                    continue
                if past_own and method in info.methods:
                    out.append(CallSite(fn.fid, info.methods[method].fid, call.lineno, cold, False))
                    return
            return
        recv_type = env.receiver_type(recv, fn.class_name)
        if recv_type is not None and recv_type.container is None:
            targets = project.hierarchy_methods(recv_type.cls, method)
            if not targets:
                resolved = project.resolve_method(recv_type.cls, method)
                targets = [resolved] if resolved is not None else []
            for target in targets:
                out.append(CallSite(fn.fid, target.fid, call.lineno, cold, False))
            return
        # Fallback: name-based CHA over project-defined method names.
        for target in project.methods_by_name.get(method, ()):
            out.append(CallSite(fn.fid, target.fid, call.lineno, cold, True))

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
                if skip_cold and site.cold:
                    continue
                if site.callee not in seen:
                    stack.append(site.callee)
        return seen
