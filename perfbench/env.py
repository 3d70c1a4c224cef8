"""Where perfbench runs: paths, child environment, host record, hermeticity."""

from __future__ import annotations

import os
import platform
import resource
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
#: Everything perfbench leaves behind (span files, scratch dirs); ignored by git.
OUT = REPO / "perfbench" / "out"

#: Where the simulator writes when nobody passes a directory: the engine's
#: result cache, with ``get_compiled_kernel``'s ``trace-code`` inside it.
DEFAULT_CACHES = (Path.home() / ".cache" / "repro-sim",)


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)


def engine_workers(requested: Optional[int] = None) -> int:
    """Worker count for engine workloads: ``min(2, nproc)`` unless asked.

    Oversubscribed pools measure the scheduler, not the engine, so a
    request above ``nproc`` is refused rather than run.
    """
    if requested is None:
        return min(2, nproc())
    if requested < 1 or requested > nproc():
        raise SystemExit(
            f"perfbench: refusing workers={requested} on a host with nproc={nproc()}"
        )
    return requested


def host_record(workers: int) -> dict:
    """Host facts stamped into every report, with load warnings in the report itself."""
    load1 = os.getloadavg()[0]
    warnings: List[str] = []
    if load1 > 0.5 * nproc():
        warnings.append(
            f"1-minute load average {load1:.2f} > 0.5 x nproc ({nproc()}) at start: "
            "timings are contended"
        )
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "nproc": nproc(),
        "workers": workers,
        "loadavg_1m_at_start": load1,
        "warnings": warnings,
    }


def git_sha() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def peak_rss_mb() -> float:
    """Peak resident set, the larger of this process and its reaped children."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def child_env(cache_dir: Path) -> Dict[str, str]:
    """Environment of every child: both caches under ``cache_dir``, fixed hash seed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["REPRO_TRACE_CACHE_DIR"] = str(cache_dir / "trace-code")
    env.pop("REPRO_CHAOS_PLAN", None)
    env.pop("REPRO_WORKERS", None)
    return env


def python_child(args: List[str], env: Dict[str, str], timeout: float = 170.0):
    """Run ``python <args>`` from the repo root, capturing its output."""
    return subprocess.run(
        [sys.executable, *args], cwd=REPO, env=env, capture_output=True, text=True, timeout=timeout
    )


@contextmanager
def scratch() -> Iterator[Path]:
    """A fresh directory under ``perfbench/out``, removed on any exit (Ctrl-C too)."""
    root = OUT / "tmp"
    root.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=root, prefix="run-") as tmp:
        yield Path(tmp)


def _listing(root: Path) -> List[Tuple[str, int, int]]:
    out = []
    for base, dirs, files in os.walk(root):
        dirs.sort()
        for name in sorted(files):
            path = Path(base) / name
            try:
                st = path.stat()
            except OSError:
                continue
            out.append((str(path), st.st_size, st.st_mtime_ns))
    return out


class CacheGuard:
    """Fails a run that touched the user's default cache directories.

    ``get_compiled_kernel`` and the engine fall back to ``~/.cache/repro-sim``
    when a caller forgets a directory; a benchmark doing that would make
    its second "cold" run warm.  Snapshot at construction, compare at
    :meth:`changed`.
    """

    def __init__(self, roots=DEFAULT_CACHES):
        self.roots = tuple(roots)
        self.before = [_listing(r) for r in self.roots]

    def changed(self) -> List[str]:
        return [
            str(root)
            for root, before in zip(self.roots, self.before)
            if _listing(root) != before
        ]
