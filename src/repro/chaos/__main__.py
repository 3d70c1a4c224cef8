"""Chaos smoke harness: injected faults must not change a single byte.

Usage::

    python -m repro.chaos --list                 # fault classes and sites
    python -m repro.chaos --smoke [--workers N]  # fault matrix, digest oracle
    python -m repro.chaos --kill-resume [--workers N] [--dir DIR]

``--smoke`` runs a small app × design grid under every injectable fault
class — worker crashes, slow and hung workers, cache-entry corruption on
read, ``OSError`` on store — and asserts the **digest oracle**: the
stats-digest grid of every faulted run must be byte-identical to the
fault-free reference, and the fault must actually have fired (checked
through the structured manifest warning its degradation-ladder step
emits).  A chaos run that merely "didn't crash" fails the harness.

``--kill-resume`` exercises the crash/resume path end to end in real
subprocesses: an ``rba-banks`` batch is SIGKILLed by a seeded plan after
a fixed number of journal appends, then re-run with ``--resume``; the
second manifest must show exactly the journaled points served from disk
and only the missing ones re-simulated.

Exit status: 0 when every scenario holds, 1 on any violation.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .hooks import PLAN_ENV, clear_plan, install_plan
from .plan import FAULTS, SITES, FaultPlan, single_fault_plan

#: The smoke grid: two cheap apps under two designs (≈1 s per point).
SMOKE_APPS = ("rod-nw", "cg-lou")
SMOKE_DESIGNS = ("baseline", "rba")

#: Journal appends the kill-resume run survives before SIGKILL.
KILL_AFTER = 5


def _smoke_points():
    from ..experiments.engine import SimPoint

    return [SimPoint(a, d) for a in SMOKE_APPS for d in SMOKE_DESIGNS]


def _digest_grid(results) -> Dict[str, str]:
    from ..obs import stats_digest

    return {
        p.label(): stats_digest(s.to_payload()) for p, s in results.items()
    }


def _warning_counts(manifest_path: Path) -> Dict[str, int]:
    from ..obs import read_manifest

    counts: Dict[str, int] = {}
    for rec in read_manifest(manifest_path):
        if rec.get("source") == "warning":
            kind = rec.get("kind", "?")
            counts[kind] = counts.get(kind, 0) + 1
    return counts


def _fresh_run(cache_dir: Path, manifest: Path, workers: int):
    """Run the smoke grid on a brand-new engine; returns (engine, digests)."""
    from ..experiments.engine import ExperimentEngine
    from ..trace.code_cache import reset_degradation
    from ..workloads import registry

    # Each scenario starts cold in this process: no compiled-kernel memo
    # (workers fork it, which would mask code-cache faults) and a re-armed
    # code-cache store path.
    registry._COMPILED_MEMO.clear()
    reset_degradation()
    engine = ExperimentEngine(
        workers=workers, cache_dir=cache_dir, manifest_path=manifest
    )
    digests = _digest_grid(engine.run_many(_smoke_points()))
    return engine, digests


#: The smoke matrix: scenario name, fault plan, cache preparation
#: (``fresh`` = empty cache dir; ``warm-results`` = results on disk so
#: read-path faults have a file to corrupt; ``warm-code`` = compiled
#: traces on disk but no results, so simulation re-reads them), and the
#: manifest warning kind that proves the fault fired and the ladder
#: engaged (None when the fault is absorbed without a warning).
SCENARIOS: Tuple[Tuple[str, FaultPlan, str, Optional[str]], ...] = (
    (
        "crash-worker",
        single_fault_plan("crash", "sim", match="rod-nw*", scope="worker"),
        "fresh",
        "chunk_crash",
    ),
    (
        "slow-worker",
        single_fault_plan("slow", "sim", times=0, seconds=0.05, scope="worker"),
        "fresh",
        None,
    ),
    (
        "hang-worker",
        single_fault_plan("hang", "sim", times=1, seconds=0.3, scope="worker"),
        "fresh",
        None,
    ),
    (
        "corrupt-result-read",
        single_fault_plan("corrupt", "result_read", times=2),
        "warm-results",
        "cache_quarantine",
    ),
    (
        "corrupt-code-read",
        single_fault_plan("corrupt", "code_read", times=1),
        "warm-code",
        "cache_quarantine",
    ),
    (
        "result-store-io-error",
        single_fault_plan("io_error", "result_store", times=0),
        "fresh",
        "cache_degraded",
    ),
    (
        "code-store-io-error",
        single_fault_plan("io_error", "code_store", times=0),
        "fresh",
        None,
    ),
)


def _prepare(kind: str, root: Path, workers: int) -> Path:
    """Build one scenario's cache directory per the preparation kind."""
    cache = root / "cache"
    if cache.exists():
        shutil.rmtree(cache)
    cache.mkdir(parents=True)
    if kind == "fresh":
        return cache
    # Seed with a clean, fault-free run into this cache dir.
    clear_plan()
    _fresh_run(cache, root / "seed-manifest.jsonl", workers)
    if kind == "warm-code":
        # Keep the compiled traces, drop the results: the chaos run must
        # simulate again and therefore re-read the trace-code cache.
        for entry in sorted(cache.glob("*.json")):
            entry.unlink()
    return cache


def _smoke(workers: int, keep_dir: Optional[str]) -> int:
    root = Path(keep_dir) if keep_dir else Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    root.mkdir(parents=True, exist_ok=True)
    failures: List[str] = []

    clear_plan()
    reference_cache = root / "reference-cache"
    _, reference = _fresh_run(
        reference_cache, root / "reference-manifest.jsonl", workers
    )
    print(f"reference: {len(reference)} points, fault-free")

    for name, plan, prep, expected_warn in SCENARIOS:
        cache = _prepare(prep, root / name, workers)
        manifest = root / name / "manifest.jsonl"
        install_plan(plan)
        try:
            engine, digests = _fresh_run(cache, manifest, workers)
        finally:
            clear_plan()
        problems: List[str] = []
        if digests != reference:
            changed = sorted(
                label
                for label in reference
                if digests.get(label) != reference[label]
            )
            problems.append(f"digest drift on {', '.join(changed) or 'grid'}")
        warns = _warning_counts(manifest) if manifest.exists() else {}
        if expected_warn is not None and not warns.get(expected_warn):
            problems.append(
                f"expected a {expected_warn!r} warning (fault did not fire "
                "or was silent)"
            )
        status = "ok" if not problems else "FAIL"
        detail = (
            f"sims={engine.profile.sims} retries={engine.profile.retries} "
            f"quarantines={engine.profile.quarantines} warnings={warns or '{}'}"
        )
        print(f"  {name:<24} {status}  {detail}")
        for problem in problems:
            print(f"    - {problem}")
            failures.append(f"{name}: {problem}")

    if not keep_dir:
        shutil.rmtree(root, ignore_errors=True)
    if failures:
        print(f"chaos smoke: {len(failures)} violation(s)", file=sys.stderr)
        return 1
    print(
        f"chaos smoke: {len(SCENARIOS)} fault scenarios, all digest-identical"
    )
    return 0


def _repro_cmd(args: List[str]) -> List[str]:
    return [sys.executable, "-m", "repro"] + args


def _child_env(extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    env = dict(os.environ)
    env.pop(PLAN_ENV, None)
    src = str(Path(__file__).resolve().parents[2])
    parts = [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
    if extra:
        env.update(extra)
    return env


def _run_child(cmd: List[str], env: Dict[str, str], log_path: Path) -> int:
    """Run a ``python -m repro`` child, robust to its own SIGKILL.

    Output goes to ``log_path`` (not a pipe: when the seeded plan
    SIGKILLs the batch parent, its orphaned pool workers would keep a
    pipe open forever).  The child gets its own process group, which is
    swept with SIGKILL afterwards so orphaned workers from a killed run
    can't race the resume run.
    """
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen(
            cmd,
            env=env,
            stdout=log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            return proc.wait(timeout=1500)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except OSError:
                pass


def _kill_resume(workers: int, keep_dir: Optional[str]) -> int:
    from ..obs import load_journal, read_manifest

    root = Path(keep_dir) if keep_dir else Path(tempfile.mkdtemp(prefix="repro-chaos-kr-"))
    root.mkdir(parents=True, exist_ok=True)
    cache = root / "cache"
    journal = root / "journal.jsonl"
    manifest1 = root / "manifest-killed.jsonl"
    manifest2 = root / "manifest-resumed.jsonl"
    failures: List[str] = []

    plan = single_fault_plan("kill", "journal", after=KILL_AFTER, times=1)
    base = [
        "rba-banks",
        "--workers",
        str(workers),
        "--cache-dir",
        str(cache),
        "--journal",
        str(journal),
    ]
    print(f"run 1: rba-banks, SIGKILL after {KILL_AFTER + 1} journal appends")
    code1 = _run_child(
        _repro_cmd(base + ["--manifest", str(manifest1)]),
        _child_env({PLAN_ENV: plan.dumps()}),
        root / "run-killed.log",
    )
    if code1 == 0:
        failures.append("killed run exited 0 — the kill fault never fired")
    journaled = load_journal(journal)
    if len(journaled) != KILL_AFTER + 1:
        failures.append(
            f"journal covers {len(journaled)} points, "
            f"expected {KILL_AFTER + 1}"
        )
    print(f"  exit {code1}, journal covers {len(journaled)} points")

    print("run 2: same batch with --resume")
    code2 = _run_child(
        _repro_cmd(base + ["--resume", "--manifest", str(manifest2)]),
        _child_env(),
        root / "run-resumed.log",
    )
    if code2 != 0:
        tail = ""
        log2 = root / "run-resumed.log"
        if log2.exists():
            tail = log2.read_text(encoding="utf-8", errors="replace")[-400:]
        failures.append(f"resume run exited {code2}: {tail}")
    # A point can appear in several manifest records (disk hit first, then
    # memory hits on revisits within the experiment), so account per
    # unique point: one that ever simulated counts as re-simulated, the
    # rest were served entirely from cache.
    point_sources: Dict[str, set] = {}
    mismatch_warns = 0
    if manifest2.exists():
        for rec in read_manifest(manifest2):
            source = rec.get("source")
            if source == "warning":
                if rec.get("kind") == "journal_mismatch":
                    mismatch_warns += 1
                continue
            point = rec.get("point", "")
            if point.startswith("trace:"):
                continue
            point_sources.setdefault(point, set()).add(source)
    total_points = len(point_sources)
    resimulated = sum(
        1 for seen in point_sources.values() if seen & {"sim", "retry"}
    )
    served = total_points - resimulated
    print(
        f"  exit {code2}, {total_points} points: "
        f"{served} from cache, {resimulated} re-simulated, "
        f"{mismatch_warns} journal mismatches"
    )
    # Every journaled point must come back from cache; only the rest may
    # re-simulate.  (Workers the kill orphaned can legitimately settle a
    # few extra points to disk after the parent died, so the cache may
    # cover slightly more than the journal — never less.)
    if total_points and resimulated > total_points - len(journaled):
        failures.append(
            f"resume re-simulated {resimulated} points; at most "
            f"{total_points - len(journaled)} "
            f"({total_points} total - {len(journaled)} journaled) are missing"
        )
    if total_points and resimulated + served != total_points:
        failures.append(
            f"cache hits ({served}) + re-simulations ({resimulated}) "
            f"!= {total_points} points: the batch did not complete"
        )
    if served < len(journaled):
        failures.append(
            f"only {served} points served from cache; every journaled "
            f"point ({len(journaled)}) should have been"
        )
    if total_points and resimulated == 0:
        failures.append(
            "nothing re-simulated — the first run was not killed early"
        )
    if mismatch_warns:
        failures.append(
            f"{mismatch_warns} journal_mismatch warning(s): the cache "
            "changed under the journal"
        )

    if not keep_dir:
        shutil.rmtree(root, ignore_errors=True)
    if failures:
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        print("chaos kill-resume: FAILED", file=sys.stderr)
        return 1
    print("chaos kill-resume: ok — only the missing points re-simulated")
    return 0


def _list() -> int:
    print("fault classes:")
    for fault in FAULTS:
        print(f"  {fault}")
    print("injection sites:")
    for site in SITES:
        print(f"  {site}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args or "-h" in args or "--help" in args:
        print(__doc__)
        return 0
    mode: Optional[str] = None
    workers = 2
    keep_dir: Optional[str] = None
    i = 0
    while i < len(args):
        arg = args[i]
        if arg == "--smoke":
            mode = "smoke"
        elif arg == "--kill-resume":
            mode = "kill-resume"
        elif arg == "--list":
            mode = "list"
        elif arg in ("--workers", "--dir") or arg.startswith(
            ("--workers=", "--dir=")
        ):
            flag, sep, value = arg.partition("=")
            if not sep:
                i += 1
                if i >= len(args):
                    print(f"{flag} requires a value", file=sys.stderr)
                    return 2
                value = args[i]
            if flag == "--workers":
                try:
                    workers = int(value)
                except ValueError:
                    print("--workers expects an integer", file=sys.stderr)
                    return 2
                if workers < 1:
                    print("--workers must be >= 1", file=sys.stderr)
                    return 2
            else:
                keep_dir = value
        else:
            print(f"unknown option: {arg}", file=sys.stderr)
            return 2
        i += 1
    if mode == "list":
        return _list()
    if mode == "smoke":
        return _smoke(workers, keep_dir)
    if mode == "kill-resume":
        return _kill_resume(workers, keep_dir)
    print(
        "usage: python -m repro.chaos --smoke|--kill-resume|--list "
        "[--workers N] [--dir DIR]",
        file=sys.stderr,
    )
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
