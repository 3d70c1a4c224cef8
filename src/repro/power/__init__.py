"""Analytical area/power model of the issue + operand-read hardware."""

from typing import TYPE_CHECKING

from .._lazy import lazy_package

if TYPE_CHECKING:
    from .components import Cost, comparator_network, crossbar, flops, request_queues, sram
    from .model import DesignPoint, config_cost, fig13_design_points, normalized_costs

__all__ = lazy_package(
    __name__,
    {
        "components": [
            "Cost", "comparator_network", "crossbar", "flops", "request_queues", "sram",
        ],
        "model": [
            "DesignPoint", "config_cost", "fig13_design_points", "normalized_costs",
        ],
    },
)
