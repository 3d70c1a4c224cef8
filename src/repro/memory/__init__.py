"""Simplified GPU memory hierarchy: L1 slices, shared L2, HBM, scratchpad."""

from typing import TYPE_CHECKING

from .._lazy import lazy_package

if TYPE_CHECKING:
    from .cache import Cache, CacheStats
    from .coalescer import Coalescer
    from .dram import DRAM, DRAMStats
    from .request import AccessResult, MemoryRequest
    from .shared_memory import SharedMemory, SharedMemoryStats
    from .subsystem import MemorySubsystem, build_dram, build_l2

__all__ = lazy_package(
    __name__,
    {
        "cache": ["Cache", "CacheStats"],
        "coalescer": ["Coalescer"],
        "dram": ["DRAM", "DRAMStats"],
        "request": ["AccessResult", "MemoryRequest"],
        "shared_memory": ["SharedMemory", "SharedMemoryStats"],
        "subsystem": ["MemorySubsystem", "build_dram", "build_l2"],
    },
)
