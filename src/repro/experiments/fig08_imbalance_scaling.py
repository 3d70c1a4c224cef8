"""Fig. 8 — unbalanced-FMA performance as inter-warp imbalance scales.

One warp in four runs ``imbalance`` times the work.  Series: round-robin
baseline, SRR, and Random Shuffle sub-core assignment.  Expected shape:
SRR stays near flat (it was crafted for this 1-in-4 pattern), Shuffle
degrades slowly, RR degrades fastest — and the SRR/Shuffle gap widens as
imbalance grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from .engine import SimPoint, get_engine
from .report import series_table

DESIGNS = ("baseline", "srr", "shuffle")
DEFAULT_SWEEP = (1, 2, 4, 8, 16, 32)


@dataclass
class Fig08Result:
    imbalances: List[int]
    #: design -> cycles per sweep point
    cycles: Dict[str, List[int]]

    def speedup_over_rr(self) -> Dict[str, List[float]]:
        base = self.cycles["baseline"]
        return {
            d: [base[i] / c for i, c in enumerate(series)]
            for d, series in self.cycles.items()
        }


def run(
    imbalances: Sequence[int] = DEFAULT_SWEEP, base_fmas: int = 64
) -> Fig08Result:
    def point(imbalance: int, design: str) -> SimPoint:
        kernel = {"imbalance": imbalance, "base_fmas": base_fmas}
        return SimPoint("scaled_imbalance_microbenchmark", design, kernel=kernel)

    stats = get_engine().run_many(point(i, d) for i in imbalances for d in DESIGNS)
    cycles = {d: [stats[point(i, d)].cycles for i in imbalances] for d in DESIGNS}
    return Fig08Result(list(imbalances), cycles)


def format_result(res: Fig08Result) -> str:
    sp = res.speedup_over_rr()
    return series_table(
        "Fig. 8: unbalanced FMA — speedup over round-robin vs imbalance factor",
        "imbalance",
        res.imbalances,
        {d: sp[d] for d in DESIGNS},
        fmt="{:.2f}x",
    )
