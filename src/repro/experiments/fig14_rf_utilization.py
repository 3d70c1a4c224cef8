"""Fig. 14 — per-cycle register-file read utilization traces.

For pb-mriq and rod-srad the paper plots 4-byte register reads per cycle
over the execution of one SM under baseline GTO, RBA, and the
fully-connected SM (max 256/cycle = 8 banks x 32 threads), with the
whole-run average drawn in red.  Reported rod-srad averages: 22.2
(baseline), 27.1 (RBA), 23.4 (fully-connected) — RBA wins by raising
*average* utilization, not peak.

A bank grant in the simulator is one warp-operand read = 32 four-byte
reads in the paper's unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..metrics.stats import SimStats
from .engine import SimPoint, get_engine
from .report import series_table

APPS = ("pb-mriq", "rod-srad")
DESIGNS = ("baseline", "rba", "fully_connected")

#: 4-byte reads represented by one warp-operand bank grant.
READS_PER_GRANT = 32


@dataclass
class Fig14Result:
    #: app -> design -> SimStats (with rf_read_timeline populated)
    stats: Dict[str, Dict[str, SimStats]]

    def average_reads(self, app: str, design: str) -> float:
        """Whole-run average 4-byte reads per cycle (the red line)."""
        s = self.stats[app][design]
        return s.rf_reads_per_cycle() * READS_PER_GRANT

    def timeline(self, app: str, design: str) -> np.ndarray:
        """Dense per-cycle reads array in the paper's unit."""
        s = self.stats[app][design]
        sm = s.sms[0]
        arr = np.zeros(s.cycles, dtype=np.int64)
        assert sm.rf_read_timeline is not None
        for cycle, grants in sm.rf_read_timeline:
            if cycle < s.cycles:
                arr[cycle] = grants * READS_PER_GRANT
        return arr

    def low_utilization_cycles(self, app: str, design: str, threshold: int = 85) -> float:
        """Fraction of cycles with <= threshold reads (paper highlights 85)."""
        t = self.timeline(app, design)
        return float((t <= threshold).mean())


def run(apps: Optional[Tuple[str, ...]] = None) -> Fig14Result:
    apps = apps if apps is not None else APPS
    points = get_engine().run_many(
        SimPoint(app, d, 1, True) for app in apps for d in DESIGNS
    )
    stats: Dict[str, Dict[str, SimStats]] = {
        app: {d: points[SimPoint(app, d, 1, True)] for d in DESIGNS} for app in apps
    }
    return Fig14Result(stats)


def format_result(res: Fig14Result) -> str:
    apps = list(res.stats)
    lines: List[str] = []
    avg_rows = {
        d: [res.average_reads(app, d) for app in apps] for d in DESIGNS
    }
    lines.append(
        series_table(
            "Fig. 14: average register-file reads/cycle per SM (max 256)",
            "app",
            apps,
            avg_rows,
            fmt="{:.1f}",
        )
    )
    lines.append("")
    for app in apps:
        low = ", ".join(
            f"{d}: {res.low_utilization_cycles(app, d):.0%}" for d in DESIGNS
        )
        lines.append(f"{app} cycles at <=85 reads — {low}")

    # Fig. 14's actual plots: per-cycle read traces (max 256/cycle).
    from ..viz import timeline

    for app in apps:
        lines.append("")
        for d in DESIGNS:
            lines.append(
                timeline(
                    f"{app} / {d} — reads per cycle",
                    res.timeline(app, d),
                    buckets=72,
                    vmax=256,
                )
            )
    lines.append(
        "\n(paper rod-srad averages: baseline 22.2, RBA 27.1, fully-connected 23.4)"
    )
    return "\n".join(lines)
