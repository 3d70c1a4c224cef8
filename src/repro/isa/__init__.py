"""Simplified SASS-like instruction set used by warp traces."""

from typing import TYPE_CHECKING

from .._lazy import lazy_package

if TYPE_CHECKING:
    from .instruction import Instruction, MemRef, bar, exit_, fadd, ffma, iadd, ldg, stg
    from .opcodes import MAX_SRC_OPERANDS, FuncUnit, Opcode, OpcodeInfo

__all__ = lazy_package(
    __name__,
    {
        "instruction": [
            "Instruction", "MemRef", "bar", "exit_", "fadd", "ffma", "iadd", "ldg",
            "stg",
        ],
        "opcodes": ["MAX_SRC_OPERANDS", "FuncUnit", "Opcode", "OpcodeInfo"],
    },
)
