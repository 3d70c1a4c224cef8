"""Cycle-level SM model: sub-cores, operand collection, warp scheduling."""

from typing import TYPE_CHECKING

from .._lazy import lazy_package

if TYPE_CHECKING:
    from .arbitration import ArbitrationUnit
    from .collector_unit import CollectorUnit
    from .execution import ExecutionUnits, Pipeline
    from .register_file import RegisterFile
    from .sm import StreamingMultiprocessor
    from .subcore import SubCore
    from .subcore_assignment import (
        HashTableAssignment,
        RoundRobinAssignment,
        ShuffleAssignment,
        SRRAssignment,
        SubcoreAssignment,
        make_assignment,
    )
    from .thread_block import ThreadBlock
    from .warp import Warp, WarpState
    from .warp_scheduler import (
        BankStealingScheduler,
        TwoLevelScheduler,
        GTOScheduler,
        LRRScheduler,
        RBAScheduler,
        WarpScheduler,
        make_scheduler,
    )

__all__ = lazy_package(
    __name__,
    {
        "arbitration": ["ArbitrationUnit"],
        "collector_unit": ["CollectorUnit"],
        "execution": ["ExecutionUnits", "Pipeline"],
        "register_file": ["RegisterFile"],
        "sm": ["StreamingMultiprocessor"],
        "subcore": ["SubCore"],
        "subcore_assignment": [
            "HashTableAssignment", "RoundRobinAssignment", "ShuffleAssignment",
            "SRRAssignment", "SubcoreAssignment", "make_assignment",
        ],
        "thread_block": ["ThreadBlock"],
        "warp": ["Warp", "WarpState"],
        "warp_scheduler": [
            "BankStealingScheduler", "TwoLevelScheduler", "GTOScheduler",
            "LRRScheduler", "RBAScheduler", "WarpScheduler", "make_scheduler",
        ],
    },
)
