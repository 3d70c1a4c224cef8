"""Compiler model: register→bank mapping and conflict-aware renaming."""

from typing import TYPE_CHECKING

from .._lazy import lazy_package

if TYPE_CHECKING:
    from .allocator import ConflictAwareAllocator
    from .bank_mapping import (
        MAPPINGS,
        BankMapper,
        get_mapping,
        mod_mapping,
        scrambled_mapping,
        warp_swizzle_mapping,
    )

__all__ = lazy_package(
    __name__,
    {
        "allocator": ["ConflictAwareAllocator"],
        "bank_mapping": [
            "MAPPINGS", "BankMapper", "get_mapping", "mod_mapping", "scrambled_mapping",
            "warp_swizzle_mapping",
        ],
    },
)
