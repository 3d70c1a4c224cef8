"""Experiment harnesses: the paper's figures and tables.

A figure is a module, or a row of :mod:`.speedups` (the speedup-over-
baseline figures, Figs. 1, 9, 10, 11, 12, 15 and 16).  Either exposes
``run(...)``, which returns the figure's result, and ``format_result(...)``,
which renders the rows the paper reports; ``python -m repro NAME`` prints
``format_result(run())``.  EXPERIMENTS.md records paper-vs-measured for
every entry.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_package

if TYPE_CHECKING:
    from . import (
        ablation_bank_mapping,
        ablation_baseline_scheduler,
        cu_validation,
        effect4_concurrent,
        fig03_fma_imbalance,
        fig08_imbalance_scaling,
        fig13_area_power,
        fig14_rf_utilization,
        fig17_issue_cov,
        fig18_sm_scaling,
        hash_table_size,
        headline,
        subcore_granularity,
        work_stealing_study,
        rba_banks,
        rba_latency,
        speedups,
    )
    from . import sweep
    from .engine import (
        ExperimentEngine,
        SimPoint,
        configure,
        get_engine,
        point_key,
    )
    from .export import dump_json, load_json, stats_to_dict
    from .designs import DESIGNS, design_names, get_design

__all__ = lazy_package(
    __name__,
    {
        "engine": [
            "ExperimentEngine", "SimPoint", "configure", "get_engine", "point_key",
        ],
        "export": ["dump_json", "load_json", "stats_to_dict"],
        "designs": ["DESIGNS", "design_names", "get_design"],
    },
    submodules=(
        "ablation_bank_mapping", "ablation_baseline_scheduler", "cu_validation",
        "effect4_concurrent", "fig03_fma_imbalance", "fig08_imbalance_scaling",
        "fig13_area_power", "fig14_rf_utilization", "fig17_issue_cov",
        "fig18_sm_scaling", "hash_table_size", "headline", "subcore_granularity",
        "work_stealing_study", "rba_banks", "rba_latency", "speedups", "sweep",
    ),
)
