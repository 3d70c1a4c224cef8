"""Fig. 18 — fewer fully-connected SMs vs more partitioned SMs.

The paper fixes the work and scales the number of partitioned SMs until
they match 80 fully-connected SMs: ~100 partitioned SMs are needed at
baseline, but only ~84 with the proposed techniques (Shuffle+RBA).

We reproduce the trade-off at reduced scale: a fully-connected GPU with
``fc_sms`` SMs sets the reference time on a fixed CTA pool of
compute-bound apps; partitioned GPUs sweep SM counts and we interpolate
the count matching the reference (the "equivalence point").  The ratio
``equivalent_partitioned / fc_sms`` is the figure's 100/80 = 1.25 at
baseline and 84/80 = 1.05 with the techniques.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import fmean
from typing import Dict, List, Sequence

from .engine import SimPoint, get_engine

#: Apps that scale with SM count *and* lose visibly to partitioning —
#: the paper's Fig. 18 population ("compute-bound applications that
#: benefit from SM scaling"); a mix of issue-imbalance and read-operand
#: victims keeps the equivalence point representative.
DEFAULT_APPS = ("tpcU-q8", "cg-lou", "pb-sgemm")
DEFAULT_SWEEP = (4, 5, 6, 7, 8)
DEFAULT_FC_SMS = 4
#: CTAs per app for the fixed work pool (divisible by every sweep point
#: keeps the round-robin CTA distribution even).
DEFAULT_CTAS = 32


@dataclass
class Fig18Result:
    fc_sms: int
    sweep: List[int]
    #: app -> cycles of the fully-connected reference
    fc_cycles: Dict[str, int]
    #: design -> app -> cycles per sweep point
    partitioned_cycles: Dict[str, Dict[str, List[int]]]

    def equivalence_point(self, design: str) -> float:
        """Partitioned SM count whose mean performance matches the FC reference.

        Linear interpolation of mean speedup (over apps) across the sweep;
        clamped to the sweep boundaries.
        """
        # mean relative performance (fc_time / partitioned_time) per point
        perf = []
        for i in range(len(self.sweep)):
            ratios = [
                self.fc_cycles[app] / self.partitioned_cycles[design][app][i]
                for app in self.fc_cycles
            ]
            perf.append(fmean(ratios))
        xs, ys = self.sweep, perf
        if ys[0] >= 1.0:
            return float(xs[0])
        for i in range(1, len(xs)):
            if ys[i] >= 1.0:
                x0, x1, y0, y1 = xs[i - 1], xs[i], ys[i - 1], ys[i]
                return x0 + (1.0 - y0) * (x1 - x0) / (y1 - y0)
        return float(xs[-1])

    def overhead_ratio(self, design: str) -> float:
        """Equivalence point / FC SM count (paper: 1.25 base, 1.05 ours)."""
        return self.equivalence_point(design) / self.fc_sms


def run(
    apps: Sequence[str] = DEFAULT_APPS,
    sweep: Sequence[int] = DEFAULT_SWEEP,
    fc_sms: int = DEFAULT_FC_SMS,
    num_ctas: int = DEFAULT_CTAS,
    designs: Sequence[str] = ("baseline", "shuffle_rba"),
) -> Fig18Result:
    def point(app: str, design: str, num_sms: int) -> SimPoint:
        return SimPoint(app, design, num_sms, kernel={"num_ctas": num_ctas})

    stats = get_engine().run_many(
        [point(app, "fully_connected", fc_sms) for app in apps]
        + [point(app, d, n) for d in designs for app in apps for n in sweep]
    )
    fc_cycles = {app: stats[point(app, "fully_connected", fc_sms)].cycles for app in apps}
    partitioned: Dict[str, Dict[str, List[int]]] = {
        d: {app: [stats[point(app, d, n)].cycles for n in sweep] for app in apps}
        for d in designs
    }
    return Fig18Result(fc_sms, list(sweep), fc_cycles, partitioned)


def format_result(res: Fig18Result) -> str:
    lines = [
        "Fig. 18: partitioned SMs needed to match "
        f"{res.fc_sms} fully-connected SMs",
        "-" * 60,
    ]
    for design in res.partitioned_cycles:
        eq = res.equivalence_point(design)
        ratio = res.overhead_ratio(design)
        scaled = ratio * 80
        lines.append(
            f"{design:12s}: equivalence at {eq:.1f} SMs "
            f"(x{ratio:.2f}; scaled to the paper's 80 FC SMs: ~{scaled:.0f})"
        )
    lines.append("(paper: ~100 partitioned at baseline, ~84 with the techniques)")
    return "\n".join(lines)
