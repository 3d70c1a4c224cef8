"""Command-line entry point for simcheck (the repro.analysis gates).

Usage::

    python -m repro.analysis --check-all [PKG_DIR]   # the static gate
    python -m repro.analysis --sanitize-smoke        # runtime invariant grid
    python -m repro.analysis --list-rules            # rule reference

``--check-all`` takes at most one PATH: the package directory to analyse
(default: the installed ``repro`` package).  It runs the RPR101–104
hot-path pass (cycle-loop discipline and annotation hygiene) over one
project model.  Every finding fails the gate; the only exceptions are
reasoned ``# simcheck: hot-ok`` annotations.  See docs/static_analysis.md.

Check-all options:

    --github        emit GitHub Actions ::error annotations in addition to
                    the human-readable lines (auto-enabled when the
                    GITHUB_ACTIONS environment variable is set)

Smoke options:

    --apps A,B,C    comma-separated workload names (default cg-lou,
                    pb-sgemm, tpcU-q8)
    --designs X,Y   comma-separated design names (default baseline, srr,
                    rba)
    --num-sms N     SMs per simulated GPU (default 1)

Exit status: 0 clean, 1 findings / violations, 2 usage error.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import List, Optional


def _check_all(paths: List[str], github: bool) -> int:
    from .passes import run_project_passes

    if len(paths) > 1:
        print("--check-all takes at most one package dir", file=sys.stderr)
        return 2
    if paths:
        root = Path(paths[0])
    else:
        import repro

        root = Path(repro.__file__).resolve().parent
    if not root.is_dir():
        print(f"not a directory: {root}", file=sys.stderr)
        return 2
    try:
        findings = run_project_passes(root)
    except SyntaxError as exc:
        print(f"{exc.filename}:{exc.lineno}: syntax error: {exc.msg}")
        return 1
    for finding in findings:
        print(finding.format())
        if github:
            print(finding.format_github())
    files = sum(1 for _ in root.rglob("*.py"))
    print(f"simcheck: {len(findings)} finding(s), {files} file(s) analysed")
    return 0 if not findings else 1


def _sanitize_smoke(apps: Optional[str], designs: Optional[str], num_sms: int) -> int:
    from .invariants import InvariantViolation
    from .smoke import DEFAULT_APPS, DEFAULT_DESIGNS, run_smoke_grid

    app_list = [a for a in (apps or ",".join(DEFAULT_APPS)).split(",") if a]
    design_list = [d for d in (designs or ",".join(DEFAULT_DESIGNS)).split(",") if d]
    try:
        report = run_smoke_grid(app_list, design_list, num_sms=num_sms)
    except InvariantViolation as exc:
        print(f"sanitize-smoke: FAILED\n{exc}", file=sys.stderr)
        return 1
    print(report.summary())
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if "-h" in args or "--help" in args:
        print(__doc__)
        return 0

    mode: Optional[str] = None
    paths: List[str] = []
    github = bool(os.environ.get("GITHUB_ACTIONS"))
    apps: Optional[str] = None
    designs: Optional[str] = None
    num_sms = 1

    i = 0
    while i < len(args):
        arg = args[i]
        if arg == "--check-all":
            mode = "check-all"
        elif arg == "--sanitize-smoke":
            mode = "smoke"
        elif arg == "--list-rules":
            mode = "rules"
        elif arg == "--github":
            github = True
        elif arg.startswith(("--apps", "--designs", "--num-sms")):
            flag, sep, value = arg.partition("=")
            if not sep:
                i += 1
                if i >= len(args):
                    print(f"{flag} requires a value", file=sys.stderr)
                    return 2
                value = args[i]
            if flag == "--apps":
                apps = value
            elif flag == "--designs":
                designs = value
            elif flag == "--num-sms":
                try:
                    num_sms = int(value)
                except ValueError:
                    print(f"--num-sms expects an integer, got {value!r}", file=sys.stderr)
                    return 2
            else:
                print(f"unknown option: {flag}", file=sys.stderr)
                return 2
        elif arg.startswith("-"):
            print(f"unknown option: {arg}", file=sys.stderr)
            return 2
        else:
            paths.append(arg)
        i += 1

    if mode == "rules":
        from .passes import rule_listing

        print(rule_listing())
        return 0
    if mode == "smoke":
        return _sanitize_smoke(apps, designs, num_sms)
    if mode == "check-all":
        return _check_all(paths, github)
    print("choose a mode: --check-all, --sanitize-smoke or --list-rules", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
