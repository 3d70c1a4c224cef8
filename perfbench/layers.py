"""Per-layer attribution from outside: cProfile by source file, and micro-timers.

``profile_files`` runs the unmodified program under ``cProfile`` and sums
``tottime`` per source file under ``repro/`` (robust to function
renames).  Time in built-ins and the standard library is folded into the
repro file that called it, so a file's share is its whole self time.
cProfile taxes every Python call and no native work, so shares lean
towards call-heavy files; they locate a cost, the untraced pass prices it.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import repro

_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


@dataclass
class FileProfile:
    #: ``core/sm.py`` -> self seconds (callee built-in/stdlib time included).
    seconds: Dict[str, float] = field(default_factory=dict)
    #: Every profiled second, inside repro or not.
    total: float = 0.0
    #: Calls of functions defined under ``repro/`` (deterministic).
    calls: int = 0
    #: ``(file, function)`` -> primitive call count, for repro functions.
    ncalls: Dict[tuple, int] = field(default_factory=dict)

    def share(self, *prefixes: str) -> float:
        """Share of all profiled time spent in files starting with a prefix."""
        if not self.total:
            return 0.0
        own = sum(s for f, s in self.seconds.items() if f.startswith(prefixes))
        return own / self.total


def _rel(filename: str) -> str:
    return filename[len(_ROOT):] if filename.startswith(_ROOT) else ""


def profile_files(fn: Callable[[], object]) -> FileProfile:
    prof = cProfile.Profile()
    prof.enable()
    try:
        fn()
    finally:
        prof.disable()
    out = FileProfile()
    for (filename, _line, name), (_cc, nc, tt, _ct, callers) in pstats.Stats(prof).stats.items():
        out.total += tt
        rel = _rel(filename)
        if rel:
            out.seconds[rel] = out.seconds.get(rel, 0.0) + tt
            out.calls += nc
            out.ncalls[(rel, name)] = out.ncalls.get((rel, name), 0) + nc
            continue
        for (caller_file, _l, _n), (_c, _nc, caller_tt, _ct2) in callers.items():
            caller = _rel(caller_file)
            if caller:
                out.seconds[caller] = out.seconds.get(caller, 0.0) + caller_tt
    return out


def time_us(fn: Callable[[], object], n: int, repeats: int = 3) -> float:
    """Median over ``repeats`` of the mean microseconds per call in a loop of ``n``."""
    means: List[float] = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        means.append((time.perf_counter() - t0) / n * 1e6)
    return statistics.median(means)
