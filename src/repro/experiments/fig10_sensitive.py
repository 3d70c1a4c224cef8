"""Fig. 10 — summary design performance on the partitioning-sensitive apps
(Table III subset).

Designs: RBA, SRR, Shuffle, Shuffle+RBA, register bank stealing [36],
doubled collector units (4 CUs), and the fully-connected SM — all
normalized to the GTO + RR baseline.  Paper reference points: RBA ≈ +11.1 %
average, bank stealing < +1 %, 4 CUs ≈ +4.1 %, combined techniques +19.3 %
on this population.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..workloads.registry import SENSITIVE_APPS
from .report import average_speedups, speedup_table, speedups_over_baseline

DESIGNS = (
    "rba",
    "srr",
    "shuffle",
    "shuffle_rba",
    "bank_stealing",
    "cu4",
    "fully_connected",
)


@dataclass
class Fig10Result:
    rows: List[Tuple[str, Dict[str, float]]]

    def averages(self) -> Dict[str, float]:
        return average_speedups(self.rows, DESIGNS)


def run(apps: Optional[List[str]] = None, num_sms: int = 1) -> Fig10Result:
    apps = apps if apps is not None else list(SENSITIVE_APPS)
    return Fig10Result(speedups_over_baseline(apps, DESIGNS, num_sms=num_sms))


def format_result(res: Fig10Result) -> str:
    table = speedup_table(
        "Fig. 10: designs on partitioning-sensitive applications",
        res.rows,
        designs=list(DESIGNS),
    )
    avg = res.averages()
    refs = {
        "rba": "+11.1%",
        "bank_stealing": "<+1%",
        "cu4": "+4.1%",
        "shuffle_rba": "+19.3%",
    }
    notes = ", ".join(
        f"{d}: {(avg[d] - 1) * 100:+.1f}% (paper {refs[d]})" for d in refs
    )
    return f"{table}\n\n{notes}"


def main() -> None:  # pragma: no cover
    print(format_result(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
