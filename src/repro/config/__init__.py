"""Hardware configuration dataclasses and named presets."""

from typing import TYPE_CHECKING

from .._lazy import lazy_package

if TYPE_CHECKING:
    from .gpu_config import AssignmentPolicy, GPUConfig, MemoryConfig, SchedulerPolicy
    from .presets import (
        PRESETS,
        ampere_a100,
        bank_stealing,
        fully_connected,
        kepler,
        rba,
        shuffle,
        shuffle_rba,
        srr,
        tpch_config,
        volta_v100,
        with_cus,
    )

__all__ = lazy_package(
    __name__,
    {
        "gpu_config": [
            "AssignmentPolicy", "GPUConfig", "MemoryConfig", "SchedulerPolicy",
        ],
        "presets": [
            "PRESETS", "ampere_a100", "bank_stealing", "fully_connected", "kepler",
            "rba", "shuffle", "shuffle_rba", "srr", "tpch_config", "volta_v100",
            "with_cus",
        ],
    },
)
