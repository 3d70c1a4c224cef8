"""Shared plumbing for simcheck's analysis pass: rules, findings, context."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from ..callgraph import CallGraph
from ..project import ProjectModel


@dataclass(frozen=True)
class Rule:
    """One rule: stable ID, summary and a fix-it hint."""

    rule_id: str
    summary: str
    hint: str


RULES: Dict[str, Rule] = {
    r.rule_id: r
    for r in (
        Rule(
            "RPR101",
            "allocation in a cycle-hot function",
            "hoist the allocation out of the per-cycle path or reuse a "
            "preallocated buffer; if the work is inherent to the model, "
            "justify with `# simcheck: hot-ok -- reason`",
        ),
        Rule(
            "RPR102",
            "try/except inside a loop in a cycle-hot function",
            "hoist the try outside the loop, or restructure with a lookup "
            "that cannot raise",
        ),
        Rule(
            "RPR103",
            "deep attribute chain re-read in a cycle-hot function",
            "hoist the chain's prefix into a local once and index through it",
        ),
        Rule(
            "RPR104",
            "stale or unknown simcheck annotation",
            "remove the annotation (it no longer suppresses a finding) or fix "
            "the tag spelling",
        ),
    )
}


def rule_listing() -> str:
    """Human-readable table of every rule (``--list-rules``)."""
    lines = []
    for rule_id, rule in sorted(RULES.items()):
        lines.append(f"{rule_id}  {rule.summary}")
        lines.append(f"        fix: {rule.hint}")
    return "\n".join(lines)


@dataclass(frozen=True)
class Finding:
    """One located finding."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col + 1}: {self.rule_id} "
            f"{self.message} (fix: {RULES[self.rule_id].hint})"
        )

    def format_github(self) -> str:
        """GitHub Actions workflow-command annotation for this finding."""
        message = f"{self.message} (fix: {RULES[self.rule_id].hint})".replace("\n", " ")
        return (
            f"::error file={self.path},line={self.line},col={self.col + 1},"
            f"title=simcheck {self.rule_id}::{message}"
        )


@dataclass
class AnalysisContext:
    """One ``--check-all`` run's shared state.

    Passes append :class:`Finding`\\ s through :meth:`add` (which de-dupes
    identical findings re-derived through different subclasses) and record
    each ``# simcheck:`` annotation they honour through :meth:`use` so the
    hygiene check can flag stale annotations afterwards.
    """

    project: ProjectModel
    graph: CallGraph
    findings: List[Finding] = field(default_factory=list)
    used_annotations: Set[Tuple[str, int]] = field(default_factory=set)

    def add(self, rule_id: str, path: str, line: int, message: str) -> None:
        finding = Finding(rule_id, path, line, 0, message)
        if finding not in self.findings:
            self.findings.append(finding)

    def use(self, module: str, line: int) -> None:
        self.used_annotations.add((module, line))

    def used(self, module: str, line: int) -> bool:
        return (module, line) in self.used_annotations
