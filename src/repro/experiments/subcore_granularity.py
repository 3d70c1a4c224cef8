"""Extension study — how partitioning granularity scales the loss.

The paper evaluates the 4-sub-core Volta design against a monolithic SM;
real products have shipped 1, 2 and 4 sub-cores per SM (Kepler, Maxwell/
Pascal, Volta+).  This study sweeps the partitioning granularity while
holding aggregate SM capacity constant: an N-way split gives each
scheduler 8/N banks, 8/N collector units and 1/N of the execution lanes.

Expected shape: both pathologies deepen with N — the unbalanced-FMA
penalty approaches N x (issue bandwidth fragments), and the
register-sensitive apps slow as banks-per-scheduler shrink.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence

from ..config import GPUConfig, volta_v100
from .designs import overrides_from
from .engine import SimPoint, get_engine
from .report import series_table

#: Default sweep stops at 4: an 8-way split cannot keep the aggregate
#: issue width at 4 with integer per-sub-core widths, so it would conflate
#: partitioning effects with extra issue bandwidth.
SUBCORE_SWEEP = (1, 2, 4)


def partitioned_config(n_subcores: int) -> GPUConfig:
    """Volta-capacity SM split n-ways (n=1 is the fully-connected SM)."""
    base = volta_v100()
    agg_banks = base.total_rf_banks
    agg_cus = base.total_collector_units
    agg = base.subcores_per_sm
    if agg_banks % n_subcores or agg_cus % n_subcores:
        raise ValueError(f"cannot split 8 banks/CUs {n_subcores} ways")
    return base.replace(
        name=f"volta-{n_subcores}way",
        subcores_per_sm=n_subcores,
        issue_width=max(1, 4 // n_subcores),
        rf_banks_per_subcore=agg_banks // n_subcores,
        collector_units_per_subcore=agg_cus // n_subcores,
        fp32_lanes=base.fp32_lanes * agg // n_subcores,
        int_lanes=base.int_lanes * agg // n_subcores,
        sfu_lanes=max(1, base.sfu_lanes * agg // n_subcores),
        tensor_units=max(1, base.tensor_units * agg // n_subcores),
        ldst_units=max(1, base.ldst_units * agg // n_subcores),
    )


@dataclass
class GranularityResult:
    sweep: List[int]
    #: workload name -> cycles per sweep point
    cycles: Dict[str, List[int]]

    def slowdown_vs_monolithic(self, name: str) -> List[float]:
        base = self.cycles[name][0]
        return [c / base for c in self.cycles[name]]


def run(
    apps: Sequence[str] = ("cg-lou", "pb-sgemm"),
    sweep: Sequence[int] = SUBCORE_SWEEP,
    fmas: int = 128,
) -> GranularityResult:
    fma = SimPoint("fma_microbenchmark", kernel={"layout": "unbalanced", "fmas": fmas})
    workloads = {"fma-unbalanced": fma, **{app: SimPoint(app) for app in apps}}
    points = {
        (name, n): replace(w, overrides=overrides_from(partitioned_config(n)))
        for n in sweep
        for name, w in workloads.items()
    }
    stats = get_engine().run_many(points.values())
    cycles = {name: [stats[points[name, n]].cycles for n in sweep] for name in workloads}
    return GranularityResult(list(sweep), cycles)


def format_result(res: GranularityResult) -> str:
    table = series_table(
        "Extension: slowdown vs partitioning granularity "
        "(normalized to the monolithic SM)",
        "sub-cores",
        res.sweep,
        {name: res.slowdown_vs_monolithic(name) for name in res.cycles},
        fmt="{:.2f}x",
    )
    unb = res.slowdown_vs_monolithic("fma-unbalanced")
    return (
        f"{table}\n\n"
        f"unbalanced FMA penalty grows with granularity: "
        + " -> ".join(f"{x:.2f}x" for x in unb)
    )
