"""Fig. 13 — area and power of CU scaling versus the RBA design.

All design points include the warp issue scheduler, operand collector and
two register-file banks, normalized to the 2-CU GTO baseline (the paper
synthesizes these in RTL; we use the structure-count model in
:mod:`repro.power`).  Paper: 4 CUs cost +27 % area / +60 % power; the RBA
design costs ~1 % in both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..power import normalized_costs
from .report import series_table


@dataclass
class Fig13Result:
    #: design -> {"area": x, "power": x} relative to the 2-CU baseline
    costs: Dict[str, Dict[str, float]]

    def overhead(self, design: str, metric: str) -> float:
        """Relative overhead in percent (e.g. +27.0 for 1.27x)."""
        return (self.costs[design][metric] - 1.0) * 100.0


def run() -> Fig13Result:
    return Fig13Result(normalized_costs())


def format_result(res: Fig13Result) -> str:
    designs = list(res.costs)
    table = series_table(
        "Fig. 13: area & power vs the 2-CU baseline",
        "metric",
        ["area", "power"],
        {d: [res.costs[d]["area"], res.costs[d]["power"]] for d in designs},
        fmt="{:.2f}x",
    )
    return (
        f"{table}\n\n"
        f"4 CUs: {res.overhead('4cu', 'area'):+.0f}% area / "
        f"{res.overhead('4cu', 'power'):+.0f}% power (paper: +27% / +60%)\n"
        f"RBA: {res.overhead('2cu+rba', 'area'):+.1f}% area / "
        f"{res.overhead('2cu+rba', 'power'):+.1f}% power (paper: ~+1% / +1%)"
    )
