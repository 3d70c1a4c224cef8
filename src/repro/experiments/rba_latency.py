"""Sec. VI-B4 — RBA score-update latency sensitivity.

RBA scores may arrive stale if the score-update path is latched or
pipelined.  The paper sweeps 0-20 cycles of staleness over the top 15
RBA-benefiting apps and sees < 0.1 % average degradation; only ply-2Dcon
loses more than 1 % (its RBA speedup drops from +24.2 % to +19.2 % at 20
cycles).

Documented divergence: the paper's near-zero sensitivity relies on real
applications having long stable periods of register-file pressure.  Our
synthetic traces oscillate on a shorter timescale, so RBA here degrades
gracefully with staleness (retaining a positive gain at 20 cycles but
losing the cycle-fresh alternation component) instead of being flat — the
qualitative claims that survive are "stale RBA never falls meaningfully
below GTO" and "most of the gain is intact at small latencies".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..workloads.registry import RF_SENSITIVE_APPS
from .report import series_table, speedups_over_baseline

LATENCIES = (0, 1, 2, 5, 10, 20)


@dataclass
class RBALatencyResult:
    apps: List[str]
    #: latency -> app -> speedup over GTO baseline
    speedups: Dict[int, Dict[str, float]]

    def average_speedup(self, latency: int) -> float:
        return float(np.mean(list(self.speedups[latency].values())))

    def average_degradation(self) -> float:
        """Percentage points lost going from latency 0 to the max latency."""
        lat_max = max(self.speedups)
        return (self.average_speedup(0) - self.average_speedup(lat_max)) * 100.0

    def worst_app(self) -> Tuple[str, float]:
        """App with the largest 0→max-latency speedup loss (pp)."""
        lat_max = max(self.speedups)
        losses = {
            app: (self.speedups[0][app] - self.speedups[lat_max][app]) * 100.0
            for app in self.apps
        }
        app = max(losses, key=losses.get)
        return app, losses[app]


def run(
    apps: Optional[Sequence[str]] = None, latencies: Sequence[int] = LATENCIES
) -> RBALatencyResult:
    apps = list(apps) if apps is not None else list(RF_SENSITIVE_APPS)
    rows = speedups_over_baseline(apps, [f"rba_lat{lat}" for lat in latencies])
    speedups = {lat: {app: v[f"rba_lat{lat}"] for app, v in rows} for lat in latencies}
    return RBALatencyResult(apps, speedups)


def format_result(res: RBALatencyResult) -> str:
    lats = sorted(res.speedups)
    table = series_table(
        "Sec. VI-B4: RBA speedup vs score-update latency",
        "app",
        res.apps,
        {f"lat{l}": [res.speedups[l][a] for a in res.apps] for l in lats},
        fmt="{:.3f}x",
    )
    worst_app, worst_loss = res.worst_app()
    return (
        f"{table}\n\n"
        f"average degradation 0→{max(lats)} cycles: "
        f"{res.average_degradation():.2f} pp (paper: <0.1%)\n"
        f"worst app: {worst_app} loses {worst_loss:.1f} pp "
        f"(paper: ply-2Dcon, ~5 pp)"
    )
