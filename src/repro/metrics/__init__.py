"""Run statistics and cross-design analysis helpers."""

from typing import TYPE_CHECKING

from .._lazy import lazy_package

if TYPE_CHECKING:
    from .analysis import (
        coefficient_of_variation,
        geomean,
        mean,
        mean_absolute_error,
        percent_speedup,
        speedup,
        speedup_table,
    )
    from .bounds import IPCBounds, bound_report, ipc_bounds
    from .profile_report import compare_report, profile_report
    from .stats import SimStats, SMStats

__all__ = lazy_package(
    __name__,
    {
        "analysis": [
            "coefficient_of_variation", "geomean", "mean", "mean_absolute_error",
            "percent_speedup", "speedup", "speedup_table",
        ],
        "bounds": ["IPCBounds", "bound_report", "ipc_bounds"],
        "profile_report": ["compare_report", "profile_report"],
        "stats": ["SimStats", "SMStats"],
    },
)
