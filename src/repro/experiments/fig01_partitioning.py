"""Fig. 1 — speedup of a hypothetical fully-connected SM over the 4-way
partitioned Volta baseline, across the application registry.

The paper reports an average of ~13.2 % across 112 applications, with a
large near-1.0 population and a sensitive tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..workloads.registry import app_names
from .report import speedup_table, speedups_over_baseline

DESIGNS = ("fully_connected",)


@dataclass
class Fig01Result:
    rows: List[Tuple[str, Dict[str, float]]]

    @property
    def speedups(self) -> List[float]:
        return [r[1]["fully_connected"] for r in self.rows]

    @property
    def average(self) -> float:
        return float(np.mean(self.speedups))

    @property
    def max_speedup(self) -> float:
        return float(np.max(self.speedups))

    def sensitive_fraction(self, threshold: float = 1.05) -> float:
        """Fraction of apps whose fully-connected speedup exceeds threshold."""
        s = self.speedups
        return sum(1 for x in s if x > threshold) / len(s)


def run(apps: Optional[List[str]] = None, num_sms: int = 1) -> Fig01Result:
    apps = apps if apps is not None else app_names()
    return Fig01Result(speedups_over_baseline(apps, DESIGNS, num_sms=num_sms))


def format_result(res: Fig01Result) -> str:
    from ..viz import histogram

    table = speedup_table(
        "Fig. 1: fully-connected SM speedup over partitioned baseline",
        res.rows,
        designs=list(DESIGNS),
    )
    dist = histogram(
        "speedup distribution (x over baseline)", res.speedups, bins=8
    )
    return (
        f"{table}\n\n{dist}\n\n"
        f"average speedup: {(res.average - 1) * 100:+.1f}%  (paper: +13.2%)\n"
        f"apps > +5%: {res.sensitive_fraction():.0%}; max: "
        f"{(res.max_speedup - 1) * 100:+.1f}%"
    )


def main() -> None:  # pragma: no cover - CLI convenience
    print(format_result(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
