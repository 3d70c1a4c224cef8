"""Extension study — dynamic warp migration vs hashed assignment.

Sec. VII argues a work-stealing design "would be forced to transfer the
register file state of all of the threads within the migrating warp",
making it far more expensive than the 4-byte hash table.  This study
quantifies the comparison: an idle sub-core may steal the youngest
runnable warp from the most loaded one, paying a configurable
register-transfer latency.

Expected shape: with *free* migration (latency 0) stealing approaches (or
slightly beats) SRR, since it reacts to any imbalance rather than a fixed
pattern; at realistic transfer costs the advantage shrinks; hashed SRR
delivers comparable performance with none of the migration hardware —
the paper's argument, now with numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from statistics import fmean
from typing import Dict, List, Sequence

from .engine import SimPoint, get_engine
from .report import series_table

MIGRATION_LATENCIES = (0, 64, 256, 1024)


@dataclass
class WorkStealingResult:
    workloads: List[str]
    #: design label -> workload -> cycles
    cycles: Dict[str, Dict[str, int]]
    #: workload -> migrations performed at the default latency
    migrations: Dict[str, int]

    def speedup(self, design: str) -> Dict[str, float]:
        base = self.cycles["baseline"]
        return {w: base[w] / c for w, c in self.cycles[design].items()}

    def mean_speedup(self, design: str) -> float:
        return fmean(self.speedup(design).values())


def run(
    apps: Sequence[str] = ("tpcU-q8", "tpcC-q9"),
    imbalance: int = 16,
    latencies: Sequence[int] = MIGRATION_LATENCIES,
) -> WorkStealingResult:
    workloads = {
        f"fma-{imbalance}x": SimPoint(
            "scaled_imbalance_microbenchmark",
            kernel={"imbalance": imbalance, "base_fmas": 64},
        ),
        **{app: SimPoint(app) for app in apps},
    }
    designs = {d: {"design": d} for d in ("baseline", "srr", "shuffle")}
    for lat in latencies:
        steal = {"name": f"volta+steal{lat}", "work_stealing": True, "migration_latency": lat}
        designs[f"steal_lat{lat}"] = {"overrides": steal}
    points = {(w, d): replace(workloads[w], **f) for w in workloads for d, f in designs.items()}
    stats = get_engine().run_many(points.values())
    cycles = {d: {w: stats[points[w, d]].cycles for w in workloads} for d in designs}
    counted = f"steal_lat{latencies[1] if len(latencies) > 1 else latencies[0]}"
    migrations = {
        w: sum(sm.migrations for sm in stats[points[w, counted]].sms) for w in workloads
    }
    return WorkStealingResult(list(workloads), cycles, migrations)


def format_result(res: WorkStealingResult) -> str:
    designs = [d for d in res.cycles if d != "baseline"]
    table = series_table(
        "Extension: dynamic warp migration vs hashed assignment "
        "(speedup over RR baseline)",
        "workload",
        res.workloads,
        {d: [res.speedup(d)[w] for w in res.workloads] for d in designs},
        fmt="{:.2f}x",
    )
    mig = ", ".join(f"{w}: {n}" for w, n in res.migrations.items())
    steal_designs = sorted(
        (d for d in res.cycles if d.startswith("steal_lat")),
        key=lambda d: int(d.rsplit("lat", 1)[1]),
    )
    best_steal = res.mean_speedup(steal_designs[0]) if steal_designs else float("nan")
    return (
        f"{table}\n\n"
        f"migrations performed (default latency): {mig}\n"
        f"SRR achieves {res.mean_speedup('srr'):.2f}x with a 4-byte table; "
        f"free migration reaches {best_steal:.2f}x "
        "but requires full register-file state transfer (Sec. VII)"
    )
