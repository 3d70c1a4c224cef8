"""Experiment runner — a thin façade over the execution engine.

Figures share design points (the Fig. 1 baseline runs are the Fig. 9/10
denominators), so every registered-app simulation goes through the
process-wide :class:`~repro.experiments.engine.ExperimentEngine`, which
memoizes ``(app, design, num_sms, collect_timeline)`` →
:class:`~repro.metrics.SimStats` in memory, persists results in a
content-addressed disk cache, and fans batched requests out over a worker
pool.  Simulation is bit-deterministic, so caching is loss-free.

The figure harnesses keep calling :func:`run_app` point-by-point; batch
entry points (:func:`speedups_over_baseline`, :func:`prefetch`) hand the
whole point set to the engine first so misses simulate in parallel.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Tuple

from ..metrics.stats import SimStats
from .designs import get_design
from .engine import SimPoint, get_engine

if TYPE_CHECKING:
    from ..trace.kernel_trace import KernelTrace


def clear_cache() -> None:
    """Forget in-memory results (the disk cache is left untouched)."""
    get_engine().clear_memory()


def cache_size() -> int:
    return get_engine().memory_cache_size()


def run_app(
    app: str,
    design: str = "baseline",
    num_sms: int = 1,
    collect_timeline: bool = False,
) -> SimStats:
    """Simulate one registered application under one named design."""
    return get_engine().run_point(
        SimPoint(app, design, num_sms, collect_timeline)
    )


def prefetch(
    apps: Iterable[str],
    designs: Iterable[str],
    num_sms: int = 1,
    collect_timeline: bool = False,
) -> None:
    """Resolve an apps × designs grid through the engine in one batch.

    Harnesses that loop over :func:`run_app` call this first: the engine
    dedupes the grid, simulates the misses in parallel, and the following
    per-point calls all hit the memory cache.
    """
    get_engine().run_many(
        SimPoint(app, d, num_sms, collect_timeline)
        for app in apps
        for d in designs
    )


def run_kernel(
    kernel: KernelTrace,
    design: str = "baseline",
    num_sms: int = 1,
    collect_timeline: bool = False,
) -> SimStats:
    """Simulate an ad-hoc kernel (microbenchmarks) — not cached."""
    from ..gpu.gpu import simulate

    return simulate(
        kernel,
        get_design(design),
        num_sms=num_sms,
        collect_timeline=collect_timeline,
    )


def speedups_over_baseline(
    apps: Iterable[str],
    designs: Iterable[str],
    num_sms: int = 1,
    baseline: str = "baseline",
) -> List[Tuple[str, Dict[str, float]]]:
    """Rows of ``(app, {design: speedup})`` over the shared baseline."""
    apps = list(apps)
    designs = list(designs)
    points = get_engine().run_many(
        SimPoint(app, d, num_sms)
        for app in apps
        for d in [baseline, *designs]
    )
    rows: List[Tuple[str, Dict[str, float]]] = []
    for app in apps:
        base = points[SimPoint(app, baseline, num_sms)]
        rows.append(
            (
                app,
                {
                    d: base.cycles / points[SimPoint(app, d, num_sms)].cycles
                    for d in designs
                },
            )
        )
    return rows
