"""Fig. 17 — coefficient of variation of per-sub-core instruction issue on
uncompressed TPC-H.

CoV (= sigma/mu over the four schedulers' issued-instruction totals) under
round-robin, SRR and Shuffle assignment.  Paper: SRR collapses the average
CoV from 0.80 to 0.11; query 8 has the largest baseline CoV at 1.01.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..workloads.registry import app_names
from .engine import SimPoint, get_engine
from .report import series_table

DESIGNS = ("baseline", "srr", "shuffle")
SUITE = "tpch-uncompressed"


@dataclass
class Fig17Result:
    #: (query, {design: CoV})
    rows: List[Tuple[str, Dict[str, float]]]

    def averages(self) -> Dict[str, float]:
        return {
            d: float(np.mean([v[d] for _, v in self.rows])) for d in DESIGNS
        }

    def worst_baseline(self) -> Tuple[str, float]:
        app, v = max(self.rows, key=lambda r: r[1]["baseline"])
        return app, v["baseline"]


def run(queries: Optional[List[str]] = None, num_sms: int = 1) -> Fig17Result:
    apps = queries if queries is not None else app_names(SUITE)
    points = get_engine().run_many(
        SimPoint(app, d, num_sms) for app in apps for d in DESIGNS
    )
    rows: List[Tuple[str, Dict[str, float]]] = [
        (app, {d: points[SimPoint(app, d, num_sms)].issue_cov() for d in DESIGNS})
        for app in apps
    ]
    return Fig17Result(rows)


def format_result(res: Fig17Result) -> str:
    apps = [r[0] for r in res.rows]
    table = series_table(
        "Fig. 17: CoV of per-sub-core instructions issued (uncompressed TPC-H)",
        "query",
        apps,
        {d: [v[d] for _, v in res.rows] for d in DESIGNS},
        fmt="{:.2f}",
    )
    avg = res.averages()
    worst_app, worst = res.worst_baseline()
    return (
        f"{table}\n\n"
        f"averages — baseline: {avg['baseline']:.2f} (paper 0.80), "
        f"srr: {avg['srr']:.2f} (paper 0.11), shuffle: {avg['shuffle']:.2f}\n"
        f"largest baseline CoV: {worst_app} at {worst:.2f} (paper: q8 at 1.01)"
    )
