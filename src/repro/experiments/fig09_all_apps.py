"""Fig. 9 — combined-design performance on all applications.

Speedup of Shuffle+RBA and of the fully-connected SM over the GTO+RR
baseline, across the registry.  Paper: Shuffle+RBA averages +10.6 %,
fully-connected +13.2 %, and RBA beats fully-connected on some apps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..workloads.registry import app_names
from .report import average_speedups, speedup_table, speedups_over_baseline

DESIGNS = ("shuffle_rba", "fully_connected")


@dataclass
class Fig09Result:
    rows: List[Tuple[str, Dict[str, float]]]

    def averages(self) -> Dict[str, float]:
        return average_speedups(self.rows, DESIGNS)

    def combined_vs_fc_gap(self) -> float:
        """Percentage points between fully-connected and Shuffle+RBA (paper: 2.6)."""
        avg = self.averages()
        return (avg["fully_connected"] - avg["shuffle_rba"]) * 100.0

    def apps_where_design_beats_fc(self) -> List[str]:
        return [
            app
            for app, v in self.rows
            if v["shuffle_rba"] > v["fully_connected"]
        ]


def run(apps: Optional[List[str]] = None, num_sms: int = 1) -> Fig09Result:
    apps = apps if apps is not None else app_names()
    return Fig09Result(speedups_over_baseline(apps, DESIGNS, num_sms=num_sms))


def format_result(res: Fig09Result) -> str:
    table = speedup_table(
        "Fig. 9: all-application speedup over GTO + RR baseline",
        res.rows,
        designs=list(DESIGNS),
    )
    avg = res.averages()
    beats = res.apps_where_design_beats_fc()
    return (
        f"{table}\n\n"
        f"Shuffle+RBA average: {(avg['shuffle_rba'] - 1) * 100:+.1f}% (paper: +10.6%)\n"
        f"fully-connected average: {(avg['fully_connected'] - 1) * 100:+.1f}% "
        f"(paper: +13.2%)\n"
        f"apps where Shuffle+RBA beats fully-connected: {len(beats)}"
    )


def main() -> None:  # pragma: no cover
    print(format_result(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
