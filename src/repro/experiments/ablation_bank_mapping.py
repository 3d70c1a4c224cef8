"""Ablation — register→bank mapping policy.

DESIGN.md calls out the bank-mapping policy as a modelling choice: Volta's
raw mapping is a modulo of the register id, the simulator's default adds a
per-warp swizzle (decorrelating warps the way physical renaming does), and
``scrambled`` is an idealized randomizing mapping.  This ablation measures
how much of the baseline's bank pressure — and of RBA's gain — each policy
accounts for on the register-file-sensitive apps.

Expected shape: the raw ``mod`` mapping suffers the most conflicts (warps
collide on the same parity), ``scrambled`` the least; RBA's *relative*
gain survives under every mapping because the inter-warp contention it
schedules around is present in all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import SchedulerPolicy
from ..workloads.registry import RF_SENSITIVE_APPS
from .engine import SimPoint, get_engine
from .report import series_table

MAPPINGS = ("mod", "warp_swizzle", "scrambled")


@dataclass
class BankMappingResult:
    apps: List[str]
    #: mapping -> app -> (baseline cycles, rba cycles)
    cycles: Dict[str, Dict[str, Tuple[int, int]]]

    def rba_speedup(self, mapping: str) -> float:
        """Mean RBA speedup under one mapping."""
        vals = [b / r for b, r in self.cycles[mapping].values()]
        return float(np.mean(vals))

    def baseline_cycles(self, mapping: str) -> float:
        return float(np.mean([b for b, _ in self.cycles[mapping].values()]))


def run(apps: Optional[Sequence[str]] = None) -> BankMappingResult:
    apps = list(apps) if apps is not None else list(RF_SENSITIVE_APPS[:8])
    def point(app: str, mapping: str, scheduler: str) -> SimPoint:
        return SimPoint(app, overrides={"bank_mapping": mapping, "scheduler": scheduler})

    schedulers = (SchedulerPolicy.GTO, SchedulerPolicy.RBA)
    stats = get_engine().run_many(point(a, m, s) for m in MAPPINGS for a in apps for s in schedulers)
    cycles: Dict[str, Dict[str, Tuple[int, int]]] = {
        m: {a: tuple(stats[point(a, m, s)].cycles for s in schedulers) for a in apps}
        for m in MAPPINGS
    }
    return BankMappingResult(apps, cycles)


def format_result(res: BankMappingResult) -> str:
    table = series_table(
        "Ablation: register->bank mapping policy (RF-sensitive apps)",
        "metric",
        ["mean baseline cycles", "mean RBA speedup"],
        {
            m: [res.baseline_cycles(m), res.rba_speedup(m)]
            for m in MAPPINGS
        },
        fmt="{:.3f}",
    )
    gains = ", ".join(
        f"{m}: {(res.rba_speedup(m) - 1) * 100:+.1f}%" for m in MAPPINGS
    )
    return f"{table}\n\nRBA gain by mapping — {gains}"
