"""Generic design-space sweeps.

``sweep`` runs a workload over a grid of :class:`~repro.config.GPUConfig`
field overrides on a named design, as one engine batch, and returns a
results table — the utility behind the "explore your own design point"
workflow (see ``examples/custom_design_sweep.py`` for the hand-rolled
version).

Example::

    from repro.experiments import sweep

    res = sweep.sweep(
        "pb-sgemm",
        {"rf_banks_per_subcore": [1, 2, 4],
         "collector_units_per_subcore": [2, 4, 8]},
    )
    print(sweep.format_grid(res, metric="ipc"))
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..metrics import SimStats
from .engine import SimPoint, get_engine


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: the overrides applied and the resulting stats."""

    overrides: Tuple[Tuple[str, object], ...]
    stats: SimStats

    def value(self, metric: str) -> float:
        if metric == "ipc":
            return self.stats.ipc
        if metric == "cycles":
            return float(self.stats.cycles)
        if metric == "issue_cov":
            return self.stats.issue_cov()
        if metric == "rf_reads_per_cycle":
            return self.stats.rf_reads_per_cycle()
        raise KeyError(
            f"unknown metric {metric!r}; options: ipc, cycles, issue_cov, "
            "rf_reads_per_cycle"
        )


@dataclass
class SweepResult:
    kernel_name: str
    axes: Dict[str, List[object]]
    points: List[SweepPoint]

    def lookup(self, **overrides) -> SweepPoint:
        key = tuple(sorted(overrides.items()))
        for p in self.points:
            if tuple(sorted(p.overrides)) == key:
                return p
        raise KeyError(f"no sweep point with overrides {overrides}")

    def best(self, metric: str = "ipc", maximize: bool = True) -> SweepPoint:
        return (max if maximize else min)(
            self.points, key=lambda p: p.value(metric)
        )


def sweep(
    app: str,
    axes: Mapping[str, Sequence[object]],
    design: str = "baseline",
    num_sms: int = 1,
    kernel: Optional[Mapping[str, Any]] = None,
) -> SweepResult:
    """Run a workload over the cartesian grid of config overrides on ``design``.

    ``app`` and ``kernel`` name it as a :class:`~repro.experiments.engine.SimPoint`
    does, e.g. ``sweep("fma_microbenchmark", axes, kernel={"layout": "unbalanced"})``.
    """
    if not axes or not all(axes.values()):
        raise ValueError("need at least one sweep axis, each with a value")
    names = list(axes)
    points = [
        SimPoint(app, design, num_sms, kernel=kernel or (), overrides=dict(zip(names, combo)))
        for combo in itertools.product(*(axes[n] for n in names))
    ]
    stats = get_engine().run_many(points)
    return SweepResult(
        stats[points[0]].kernel_name,
        {n: list(v) for n, v in axes.items()},
        [SweepPoint(p.overrides, stats[p]) for p in points],
    )


def format_grid(result: SweepResult, metric: str = "ipc") -> str:
    """Render a 1- or 2-axis sweep as a table (rows = first axis)."""
    names = list(result.axes)
    if len(names) == 1:
        (name,) = names
        lines = [f"{result.kernel_name}: {metric} vs {name}",
                 f"{name:>16}  {metric}"]
        for v in result.axes[name]:
            p = result.lookup(**{name: v})
            lines.append(f"{v!s:>16}  {p.value(metric):.3f}")
        return "\n".join(lines)
    if len(names) == 2:
        row_name, col_name = names
        cols = result.axes[col_name]
        header = f"{row_name}\\{col_name}"
        lines = [f"{result.kernel_name}: {metric}",
                 f"{header:>20}" + "".join(f"{c!s:>10}" for c in cols)]
        for r in result.axes[row_name]:
            cells = []
            for c in cols:
                p = result.lookup(**{row_name: r, col_name: c})
                cells.append(f"{p.value(metric):10.3f}")
            lines.append(f"{r!s:>20}" + "".join(cells))
        return "\n".join(lines)
    raise ValueError("format_grid renders 1- or 2-axis sweeps; "
                     f"got {len(names)} axes")
