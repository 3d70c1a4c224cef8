"""Per-warp memory access coalescing.

Traces record the coalescing *outcome* of each warp memory instruction
(``num_lines`` of its memory row); the coalescer expands that into the
individual line transactions the caches see.  Consecutive lines starting
at the base address model a strided/unit-stride pattern; this is all the
cache model needs.
"""

from __future__ import annotations

from typing import List, TYPE_CHECKING

from .request import MemoryRequest

if TYPE_CHECKING:  # pragma: no cover
    from ..trace.warp_trace import MemRow


class Coalescer:
    """Expands a warp memory reference into per-line transactions."""

    def __init__(self, line_bytes: int) -> None:
        if line_bytes <= 0 or line_bytes & (line_bytes - 1):
            raise ValueError("line_bytes must be a positive power of two")
        self.line_bytes = line_bytes

    def expand(self, mem: "MemRow") -> List[MemoryRequest]:
        base_address, num_lines, is_store = mem
        base_line = base_address // self.line_bytes
        return [  # simcheck: hot-ok -- one request list per warp memory instruction, not per cycle
            MemoryRequest(line_address=base_line + i, is_store=is_store)
            for i in range(num_lines)
        ]
