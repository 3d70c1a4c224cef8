"""Sec. VI-B5 — RBA sensitivity to register-bank count.

Doubling banks per sub-core from 2 to 4 relieves the read-operand stage,
leaving RBA less to fix: the paper's average RBA benefit drops from
+19.3 % to +15.4 %.  Speedups at each bank count are measured against the
GTO baseline *with the same bank count*.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import fmean
from typing import Dict, List, Optional, Sequence

from ..workloads.registry import RF_SENSITIVE_APPS
from .engine import SimPoint, get_engine
from .report import speedup_table

BANK_DESIGNS = {
    2: ("baseline", "rba"),
    4: ("baseline_4banks", "rba_4banks"),
}


@dataclass
class RBABanksResult:
    #: (app, {"2banks": speedup, "4banks": speedup})
    rows: List[tuple]

    def average(self, key: str) -> float:
        return fmean(v[key] for _, v in self.rows)


def run(apps: Optional[Sequence[str]] = None) -> RBABanksResult:
    apps = list(apps) if apps is not None else list(RF_SENSITIVE_APPS)
    points = get_engine().run_many(
        SimPoint(app, d) for app in apps for pair in BANK_DESIGNS.values() for d in pair
    )
    rows = []
    for app in apps:
        vals: Dict[str, float] = {}
        for banks, (base_design, rba_design) in BANK_DESIGNS.items():
            base = points[SimPoint(app, base_design)]
            got = points[SimPoint(app, rba_design)]
            vals[f"{banks}banks"] = base.cycles / got.cycles
        rows.append((app, vals))
    return RBABanksResult(rows)


def format_result(res: RBABanksResult) -> str:
    table = speedup_table(
        "Sec. VI-B5: RBA speedup at 2 vs 4 banks per sub-core",
        res.rows,
        designs=["2banks", "4banks"],
    )
    a2 = (res.average("2banks") - 1) * 100
    a4 = (res.average("4banks") - 1) * 100
    return (
        f"{table}\n\n"
        f"average RBA benefit — 2 banks: {a2:+.1f}% (paper +19.3%), "
        f"4 banks: {a4:+.1f}% (paper +15.4%); "
        f"benefit should shrink as banks scale"
    )
