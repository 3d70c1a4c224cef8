"""Experiment harnesses: one module per paper figure/table.

Each module exposes ``run(...)`` returning a result object with the
figure's series, and ``format_result(...)``/``main()`` to print the same
rows the paper reports.  EXPERIMENTS.md records paper-vs-measured for
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
        fig01_partitioning,
        fig03_fma_imbalance,
        fig08_imbalance_scaling,
        fig09_all_apps,
        fig10_sensitive,
        fig11_fc_rba,
        fig12_cu_scaling,
        fig13_area_power,
        fig14_rf_utilization,
        fig15_tpch_compressed,
        fig16_tpch_uncompressed,
        fig17_issue_cov,
        fig18_sm_scaling,
        hash_table_size,
        headline,
        subcore_granularity,
        work_stealing_study,
        rba_banks,
        rba_latency,
    )
    from . import sweep
    from .engine import (
        ExperimentEngine,
        SimPoint,
        configure,
        get_engine,
        point_key,
    )
    from .export import dump_json, load_json, result_to_dict, stats_to_dict
    from .designs import DESIGNS, design_names, get_design

__all__ = lazy_package(
    __name__,
    {
        "engine": [
            "ExperimentEngine", "SimPoint", "configure", "get_engine", "point_key",
        ],
        "export": ["dump_json", "load_json", "result_to_dict", "stats_to_dict"],
        "designs": ["DESIGNS", "design_names", "get_design"],
    },
    submodules=(
        "ablation_bank_mapping", "ablation_baseline_scheduler", "cu_validation",
        "effect4_concurrent", "fig01_partitioning", "fig03_fma_imbalance",
        "fig08_imbalance_scaling", "fig09_all_apps", "fig10_sensitive", "fig11_fc_rba",
        "fig12_cu_scaling", "fig13_area_power", "fig14_rf_utilization",
        "fig15_tpch_compressed", "fig16_tpch_uncompressed", "fig17_issue_cov",
        "fig18_sm_scaling", "hash_table_size", "headline", "subcore_granularity",
        "work_stealing_study", "rba_banks", "rba_latency", "sweep",
    ),
)
