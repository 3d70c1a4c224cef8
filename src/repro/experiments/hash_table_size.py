"""Sec. IV-B3 — Shuffle hash-function table size.

A 4-entry table repeats its assignment pattern every 16 warps; a 16-entry
table encodes a unique permutation for all 64 resident warps.  The paper
found the 16-entry table within 2 % of the 4-entry table across every
suite, justifying the cheaper 4-entry design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .report import speedup_table, speedups_over_baseline

DEFAULT_APPS = (
    "tpcU-q1",
    "tpcU-q8",
    "tpcC-q9",
    "tpcC-q4",
    "cg-lou",
    "pb-sgemm",
    "rod-srad",
    "ply-2Dcon",
    "db-conv-tr",
    "cutlass-4096",
)


@dataclass
class HashTableResult:
    #: (app, {"4entry": speedup, "16entry": speedup}) over baseline
    rows: List[Tuple[str, Dict[str, float]]]

    def max_gap_percent(self) -> float:
        """Largest |4-entry vs 16-entry| execution-time gap in percent."""
        gaps = [
            abs(v["16entry"] / v["4entry"] - 1.0) * 100.0 for _, v in self.rows
        ]
        return max(gaps)


def run(apps: Optional[Sequence[str]] = None) -> HashTableResult:
    apps = list(apps) if apps is not None else list(DEFAULT_APPS)
    rows = speedups_over_baseline(apps, ("shuffle_4entry", "shuffle_16entry"))
    return HashTableResult(
        [(app, {"4entry": v["shuffle_4entry"], "16entry": v["shuffle_16entry"]}) for app, v in rows]
    )


def format_result(res: HashTableResult) -> str:
    table = speedup_table(
        "Sec. IV-B3: Shuffle with 4-entry vs 16-entry hash table",
        res.rows,
        designs=["4entry", "16entry"],
    )
    return (
        f"{table}\n\n"
        f"max 4-vs-16-entry gap: {res.max_gap_percent():.1f}% (paper: within 2%)"
    )
