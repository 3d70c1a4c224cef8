"""The determinism linter driver: files in, findings out.

Wraps :mod:`repro.analysis.rules` with the file plumbing a CI gate needs:
directory walking, per-line ``# simlint: ignore[RPRxxx]`` suppressions,
stable ordering of findings, and the two output formats (human lines and
GitHub Actions ``::error`` annotations).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Set

from .rules import check_tree, get_rule

#: ``# simlint: ignore`` or ``# simlint: ignore[RPR001,RPR002]``
_SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*ignore(?:\[(?P<rules>[A-Z0-9,\s]+)\])?"
)


@dataclass(frozen=True)
class Finding:
    """One lint finding, located and (possibly) suppressed."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    suppressed: bool = False

    @property
    def hint(self) -> str:
        rule = get_rule(self.rule_id)
        return rule.hint if rule is not None else "fix the parse error first"

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col + 1}: {self.rule_id} "
            f"{self.message} (fix: {self.hint})"
        )

    def format_github(self) -> str:
        """GitHub Actions workflow-command annotation for this finding."""
        message = f"{self.message} (fix: {self.hint})".replace("\n", " ")
        return (
            f"::error file={self.path},line={self.line},col={self.col + 1},"
            f"title=simlint {self.rule_id}::{message}"
        )


@dataclass
class LintReport:
    """All findings over a set of files."""

    findings: List[Finding]
    files_scanned: int
    #: Suppression comments were ignored for this report (see ``lint_paths``).
    strict: bool = False

    @property
    def unsuppressed(self) -> List[Finding]:
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> List[Finding]:
        return [f for f in self.findings if f.suppressed]

    @property
    def ok(self) -> bool:
        return not self.unsuppressed

    def summary(self) -> str:
        mode = "simlint (strict)" if self.strict else "simlint"
        return (
            f"{mode}: {len(self.unsuppressed)} finding(s), "
            f"{len(self.suppressed)} suppressed, "
            f"{self.files_scanned} file(s) scanned"
        )


def _suppressions_for_line(source_line: str) -> Optional[Set[str]]:
    """Rule IDs suppressed on this line; empty set means *all* rules."""
    match = _SUPPRESS_RE.search(source_line)
    if match is None:
        return None
    rules = match.group("rules")
    if rules is None:
        return set()
    return {r.strip() for r in rules.split(",") if r.strip()}


def lint_source(source: str, path: str = "<string>", strict: bool = False) -> List[Finding]:
    """Lint one module's source text.

    ``strict`` ignores ``# simlint: ignore`` comments — every finding
    counts.  Used to hold designated subtrees (e.g. ``src/repro/obs``)
    to a suppression-free standard.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        line = exc.lineno or 1
        return [
            Finding(
                rule_id="RPR000",
                path=path,
                line=line,
                col=(exc.offset or 1) - 1,
                message=f"syntax error: {exc.msg}",
            )
        ]
    lines = source.splitlines()
    findings: List[Finding] = []
    for raw in check_tree(tree):
        source_line = lines[raw.line - 1] if 0 < raw.line <= len(lines) else ""
        suppressed_rules = _suppressions_for_line(source_line)
        suppressed = (
            not strict
            and suppressed_rules is not None
            and (not suppressed_rules or raw.rule_id in suppressed_rules)
        )
        findings.append(
            Finding(
                rule_id=raw.rule_id,
                path=path,
                line=raw.line,
                col=raw.col,
                message=raw.message,
                suppressed=suppressed,
            )
        )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings


def iter_python_files(paths: Sequence[str]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[Path] = []
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            out.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            out.append(p)
        else:
            raise FileNotFoundError(f"not a python file or directory: {entry}")
    return out


def lint_paths(paths: Sequence[str], strict: bool = False) -> LintReport:
    """Lint every ``.py`` file under ``paths`` (files or directories).

    With ``strict=True`` every finding is reported unsuppressed, so the
    report fails if the tree needs *any* ``# simlint: ignore`` comment.
    """
    findings: List[Finding] = []
    files = iter_python_files(paths)
    for file in files:
        source = file.read_text(encoding="utf-8")
        findings.extend(lint_source(source, path=str(file), strict=strict))
    return LintReport(findings=findings, files_scanned=len(files), strict=strict)


def rule_listing() -> str:
    """Human-readable table of every rule (used by --list-rules and docs).

    Includes pass-owned RPR1xx/2xx/3xx rules when
    :mod:`repro.analysis.passes` has been imported (the CLI always does).
    """
    from .rules import all_rules

    catalog = all_rules()
    lines = []
    for rule_id in sorted(catalog):
        rule = catalog[rule_id]
        lines.append(f"{rule_id}  {rule.summary}")
        lines.append(f"        fix: {rule.hint}")
    return "\n".join(lines)
