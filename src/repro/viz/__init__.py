"""Terminal (ASCII) chart rendering for figure output."""

from typing import TYPE_CHECKING

from .._lazy import lazy_package

if TYPE_CHECKING:
    from .ascii_charts import (
        bar_chart,
        hbar,
        histogram,
        sparkline,
        speedup_chart,
        stacked_bar_chart,
        stall_chart,
        timeline,
    )

__all__ = lazy_package(
    __name__,
    {
        "ascii_charts": [
            "bar_chart", "hbar", "histogram", "sparkline", "speedup_chart",
            "stacked_bar_chart", "stall_chart", "timeline",
        ],
    },
)
