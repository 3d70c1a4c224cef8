"""simcheck's analysis pass: hot-path discipline (RPR101–104).

:func:`run_project_passes` is the ``--check-all`` entry point; the rule
catalog is :data:`~repro.analysis.passes.base.RULES`.
"""

from __future__ import annotations

from pathlib import Path
from typing import List

from ..callgraph import CallGraph
from ..project import build_project
from .base import RULES, AnalysisContext, Finding, Rule, rule_listing
from .hotpath import HotPathPass


def run_project_passes(root: Path) -> List[Finding]:
    """Build the project model and call graph, then run the hot-path pass."""
    project = build_project(root)
    ctx = AnalysisContext(project=project, graph=CallGraph(project))
    HotPathPass().run(ctx)
    return sorted(ctx.findings, key=lambda f: (f.path, f.line, f.col, f.rule_id))


__all__ = [
    "AnalysisContext",
    "Finding",
    "HotPathPass",
    "RULES",
    "Rule",
    "rule_listing",
    "run_project_passes",
]
