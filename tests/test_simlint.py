"""The static gate's rule table, finding formats and command line.

The fixture file (``tests/data/simlint_fixture.py``) carries the expected
outcome inline: every line tagged ``# expect: RPRxxx`` must produce exactly
that finding, every ``# silent: RPRxxx`` line is that rule's good case, and
no line but the ``expect`` ones may produce anything.  Every rule
``--list-rules`` prints must have both.
"""

import re
import shutil
import subprocess
import sys
from pathlib import Path

from repro.analysis import RULES, Finding, run_project_passes
from repro.analysis.passes import rule_listing

FIXTURE = Path(__file__).parent / "data" / "simlint_fixture.py"
_CASE_RE = re.compile(r"#\s*(?P<kind>expect|silent):\s*(?P<rule>RPR\d{3})")


def _cases(kind):
    """(line, rule) pairs of one kind declared inline in the fixture."""
    cases = []
    for lineno, text in enumerate(FIXTURE.read_text().splitlines(), start=1):
        m = _CASE_RE.search(text)
        if m and m.group("kind") == kind:
            cases.append((lineno, m.group("rule")))
    return cases


def _fixture_tree(tmp_path):
    """A package tree holding the fixture where the passes scan the model."""
    root = tmp_path / "repro"
    (root / "core").mkdir(parents=True)
    shutil.copy(FIXTURE, root / "core" / FIXTURE.name)
    return root


def _fixture_findings(tmp_path):
    return sorted((f.line, f.rule_id) for f in run_project_passes(_fixture_tree(tmp_path)))


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True,
        text=True,
    )


def test_fixture_declares_every_rule():
    """The rule table: each listed rule has a firing and a silent case."""
    proc = _run_cli("--list-rules")
    assert proc.returncode == 0
    listed = set(re.findall(r"^(RPR\d{3})  ", proc.stdout, re.M))
    assert listed
    for kind in ("expect", "silent"):
        declared = {rule for _, rule in _cases(kind)}
        assert declared == listed, (
            f"every listed rule needs an `# {kind}:` case; missing "
            f"{listed - declared}, unknown {declared - listed}"
        )


def test_fixture_findings_match_inline_expectations(tmp_path):
    assert _fixture_findings(tmp_path) == sorted(_cases("expect"))


def test_good_examples_are_silent(tmp_path):
    """Lines without an expect tag — the silent cases among them — yield nothing."""
    tagged = {line for line, _ in _cases("expect")}
    assert [f for f in _fixture_findings(tmp_path) if f[0] not in tagged] == []


def test_format_is_path_line_col_rule():
    text = Finding("RPR101", "src/x.py", 3, 0, "cycle-hot f(): list display").format()
    assert text.startswith("src/x.py:3:1: RPR101 ")
    assert "(fix: " in text


def test_github_annotation_format():
    line = Finding("RPR101", "src/x.py", 3, 0, "cycle-hot f(): list display").format_github()
    assert line.startswith("::error file=src/x.py,line=3,col=1,title=simcheck RPR101::")
    assert "\n" not in line


def test_rule_listing_covers_all_rules():
    listing = rule_listing()
    for rule_id in RULES:
        assert rule_id in listing


# -- CLI ---------------------------------------------------------------------


def test_repo_tree_is_lint_clean():
    """The acceptance gate, as CI runs it: zero findings on the package."""
    proc = _run_cli("--check-all")
    assert proc.returncode == 0, proc.stdout
    assert "simcheck: 0 finding(s)" in proc.stdout


def test_cli_exits_nonzero_on_findings(tmp_path):
    proc = _run_cli("--check-all", str(_fixture_tree(tmp_path)))
    assert proc.returncode == 1
    assert "RPR101" in proc.stdout


def test_cli_exits_zero_on_clean_tree(tmp_path):
    good = tmp_path / "repro" / "good.py"
    good.parent.mkdir()
    good.write_text("x = sorted([2, 1])\n")
    proc = _run_cli("--check-all", str(good.parent))
    assert proc.returncode == 0
    assert "0 finding(s)" in proc.stdout


def test_cli_github_flag_emits_annotations(tmp_path):
    proc = _run_cli("--check-all", "--github", str(_fixture_tree(tmp_path)))
    assert proc.returncode == 1
    assert "::error file=" in proc.stdout


def test_cli_usage_error_exit_code():
    proc = _run_cli("--bogus-flag")
    assert proc.returncode == 2
