"""Every function of ``repro.core`` is code the simulator runs.

``repro.core`` keeps one implementation of each per-cycle step: a step
that was inlined into its caller has no method twin left behind for the
unit tests to drive instead.  This walk keeps twins from regrowing: a
function defined under ``src/repro/core`` must be named from some *other*
function body or module under ``src/repro`` — a method as an attribute
(``x.name``), a module-level function as an attribute or a bare name.  The
check is by name, so it errs towards passing; what it cannot miss is a
method nothing in ``src`` mentions at all.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path
from typing import Dict, Set, Tuple

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Functions nothing under ``src/repro`` names, each with the reason it stays.
ALLOWED = {
    # Read-only introspection for tests and debugging sessions.
    "occupancy": "SM.occupancy(): warps resident per sub-core, read by tests/test_sm.py",
}


def _functions_and_references() -> Tuple[Dict[str, Set[str]], Dict[str, Set[Tuple[str, str]]]]:
    """``{core function name: {"method", "function"}}`` and, for every
    identifier, the ``(kind of mention, enclosing function)`` pairs."""
    defined: Dict[str, Set[str]] = {}
    mentions: Dict[str, Set[Tuple[str, str]]] = {}

    def walk(node: ast.AST, scope: str, in_core: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if in_core:
                    kind = "method" if isinstance(node, ast.ClassDef) else "function"
                    defined.setdefault(child.name, set()).add(kind)
                walk(child, child.name, in_core)
                continue
            if isinstance(child, ast.Attribute):
                mentions.setdefault(child.attr, set()).add(("attribute", scope))
            elif isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                mentions.setdefault(child.id, set()).add(("name", scope))
            walk(child, scope, in_core)

    for path in sorted(SRC.rglob("*.py")):
        in_core = path.parent == SRC / "core"
        walk(ast.parse(path.read_text(encoding="utf-8")), "<module>", in_core)
    return defined, mentions


@functools.lru_cache(maxsize=None)
def _unreferenced() -> Set[str]:
    defined, mentions = _functions_and_references()
    dead = set()
    for name, kinds in defined.items():
        if name.startswith("__") and name.endswith("__"):
            continue
        # A mention from inside a function of the same name (recursion, or
        # an override calling super()) is not a caller; a bare name cannot
        # reach a method.
        accepted = {"attribute"} if kinds == {"method"} else {"attribute", "name"}
        if not any(
            kind in accepted and scope != name
            for kind, scope in mentions.get(name, ())
        ):
            dead.add(name)
    return dead


def test_every_core_function_is_referenced_from_src():
    dead = _unreferenced()
    assert dead - set(ALLOWED) == set(), (
        "functions under src/repro/core that nothing in src/repro names "
        "(delete them, or make the simulator call them): "
        f"{sorted(dead - set(ALLOWED))}"
    )


def test_allow_list_is_short_and_current():
    assert len(ALLOWED) <= 12
    assert all(reason.strip() for reason in ALLOWED.values())
    stale = set(ALLOWED) - _unreferenced()
    assert stale == set(), f"allow-listed names that are referenced (or gone): {sorted(stale)}"
