"""The banked register-file slice owned by one scheduler domain.

On a partitioned SM each sub-core owns ``rf_banks_per_subcore`` banks
(two, on Volta); a fully-connected SM pools all banks into one slice.  The
slice's job in the timing model is bank *mapping* — it names the mapper
and bank count from which each warp's pre-resolved source-bank rows are
built (``Warp.set_bank_view``) — and read/write accounting.

Writebacks use a dedicated write port per bank and therefore never steal
read bandwidth; the paper's bottleneck is the read-operand stage.
"""

from __future__ import annotations

from ..regalloc import BankMapper, get_mapping


class RegisterFile:
    """Bank-mapping view of one register-file slice."""

    def __init__(self, num_banks: int, mapping: str | BankMapper = "warp_swizzle"):
        if num_banks < 1:
            raise ValueError("num_banks must be >= 1")
        self.num_banks = num_banks
        self.mapper: BankMapper = (
            get_mapping(mapping) if isinstance(mapping, str) else mapping
        )
        self.reads = 0
        self.writes = 0

    # -- sanitizer hook ------------------------------------------------------

    def validate(self) -> list:
        """Counter invariants of this RF slice (consumed by the sanitizer)."""
        if self.reads < 0 or self.writes < 0:
            return [
                {
                    "invariant": "rf-accounting",
                    "message": "negative register-file access counter",
                    "counter": "register_file.reads/writes",
                    "expected": ">= 0",
                    "actual": (self.reads, self.writes),
                }
            ]
        return []
