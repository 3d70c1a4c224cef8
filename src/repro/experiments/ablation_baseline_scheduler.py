"""Ablation — warp-scheduler policy comparison around RBA.

The paper normalizes to GTO because contemporary GPUs ship it.  This
ablation adds the classic alternatives — loose round-robin (LRR) and
two-level scheduling (Narasiman et al. [49]) — to separate *generic warp
interleaving* from *bank-aware selection*:

* On bank-phased apps, any interleaving policy (LRR, two-level) recovers
  much of the loss GTO's greediness causes, because alternating warps
  happens to alternate banks.
* But interleaving policies *lose* on apps where greedy issue matters
  (they fall behind the GTO baseline), which is why GPUs ship GTO.
* RBA is the only policy that takes the interleaving win **and** never
  falls below GTO — its selection is driven by the actual bank state, so
  it degenerates to GTO order when banks are balanced.

The robustness metric reported is each policy's *minimum* speedup across
the apps: positive only for RBA.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import fmean
from typing import Dict, List, Optional, Sequence

from ..config import SchedulerPolicy
from .engine import SimPoint, get_engine
from .report import series_table

SCHEDULERS = (
    SchedulerPolicy.GTO,
    SchedulerPolicy.LRR,
    SchedulerPolicy.TWO_LEVEL,
    SchedulerPolicy.RBA,
)

#: Mixed population: bank-phased apps where interleaving wins plus apps
#: where greedy issue matters (the fair robustness test).
DEFAULT_APPS = (
    "cg-lou",
    "cg-bfs",
    "pb-mriq",
    "pb-sgemm",
    "rod-srad",
    "ply-2Dcon",
    "tpcU-q1",
    "rod-nw",
    "cutlass-4096",
    "db-conv-tr",
)


@dataclass
class BaselineSchedulerResult:
    apps: List[str]
    #: scheduler -> app -> cycles
    cycles: Dict[str, Dict[str, int]]

    def speedups_over_gto(self, scheduler: str) -> Dict[str, float]:
        gto = self.cycles[SchedulerPolicy.GTO]
        return {a: gto[a] / c for a, c in self.cycles[scheduler].items()}

    def mean_speedup(self, scheduler: str) -> float:
        return fmean(self.speedups_over_gto(scheduler).values())

    def min_speedup(self, scheduler: str) -> float:
        """Worst-case over the apps — the robustness metric."""
        return min(self.speedups_over_gto(scheduler).values())

    def rba_gain_over(self, baseline: str) -> float:
        vals = [
            self.cycles[baseline][a] / self.cycles[SchedulerPolicy.RBA][a]
            for a in self.apps
        ]
        return fmean(vals)


def run(apps: Optional[Sequence[str]] = None) -> BaselineSchedulerResult:
    apps = list(apps) if apps is not None else list(DEFAULT_APPS)
    def point(app: str, scheduler: str) -> SimPoint:
        return SimPoint(app, overrides={"scheduler": scheduler})

    stats = get_engine().run_many(point(a, s) for a in apps for s in SCHEDULERS)
    cycles = {s: {a: stats[point(a, s)].cycles for a in apps} for s in SCHEDULERS}
    return BaselineSchedulerResult(apps, cycles)


def format_result(res: BaselineSchedulerResult) -> str:
    table = series_table(
        "Ablation: warp-scheduler policies (speedup over GTO)",
        "app",
        res.apps,
        {
            s: [res.speedups_over_gto(s)[a] for a in res.apps]
            for s in SCHEDULERS
            if s != SchedulerPolicy.GTO
        },
        fmt="{:.3f}x",
    )
    summary = "; ".join(
        f"{s}: mean {(res.mean_speedup(s) - 1) * 100:+.1f}%, "
        f"min {(res.min_speedup(s) - 1) * 100:+.1f}%"
        for s in SCHEDULERS
        if s != SchedulerPolicy.GTO
    )
    return (
        f"{table}\n\n{summary}\n"
        "RBA should be the only policy whose minimum stays at/above GTO."
    )
