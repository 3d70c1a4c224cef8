"""Analysis helpers for comparing design points."""

from __future__ import annotations

from math import exp, log
from statistics import fmean, pstdev
from typing import Dict, Iterable, List, Sequence, Tuple

from .stats import SimStats


def speedup(baseline: SimStats, design: SimStats) -> float:
    """Cycle-count speedup of ``design`` over ``baseline`` (1.0 = parity)."""
    if design.cycles == 0:
        raise ValueError("design run has zero cycles")
    return baseline.cycles / design.cycles


def percent_speedup(baseline: SimStats, design: SimStats) -> float:
    """Speedup expressed the way the paper quotes it (+11.2 -> 11.2)."""
    return (speedup(baseline, design) - 1.0) * 100.0


def geomean(values: Iterable[float]) -> float:
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("geomean of empty sequence")
    if min(vals) <= 0:
        raise ValueError("geomean requires positive values")
    return exp(fmean(map(log, vals)))


def mean(values: Iterable[float]) -> float:
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("mean of empty sequence")
    return fmean(vals)


def coefficient_of_variation(values: Sequence[float]) -> float:
    """``sigma / mu`` (population sigma) — the Fig. 17 imbalance metric."""
    vals = [float(v) for v in values]
    mu = fmean(vals)
    if mu == 0:
        return 0.0
    return pstdev(vals, mu) / mu


def mean_absolute_error(reference: Sequence[float], measured: Sequence[float]) -> float:
    """Relative MAE (in percent) of ``measured`` against ``reference``.

    Used by the Sec. V collector-unit validation: per-benchmark
    ``|measured - reference| / reference`` averaged, x100.
    """
    if len(reference) != len(measured):
        raise ValueError("reference and measured must be the same length")
    if any(r == 0 for r in reference):
        raise ValueError("reference values must be non-zero")
    return fmean(abs((g - r) / r) for r, g in zip(reference, measured)) * 100.0


def speedup_table(
    baseline_cycles: Dict[str, int], design_cycles: Dict[str, Dict[str, int]]
) -> List[Tuple[str, Dict[str, float]]]:
    """Per-app speedups of several designs over a shared baseline.

    ``design_cycles`` maps design name -> app name -> cycles.  Returns rows
    of ``(app, {design: speedup})`` in the apps' iteration order.
    """
    rows: List[Tuple[str, Dict[str, float]]] = []
    for app, base in baseline_cycles.items():
        rows.append(
            (
                app,
                {
                    design: base / cycles[app]
                    for design, cycles in design_cycles.items()
                    if app in cycles
                },
            )
        )
    return rows
