"""Per-warp instruction streams.

The simulator is trace driven, like Accel-Sim's SASS mode: each warp
executes a fixed, pre-recorded sequence of instructions.  Control flow is
already resolved in the trace (a warp that loops 4096 times simply carries
4096 FFMA entries), which is exactly the abstraction level at which the
paper's issue/operand-read effects arise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Sequence

from ..isa import Instruction, Opcode


@dataclass
class WarpTrace:
    """The instruction stream of one warp within a thread block.

    The final instruction of every warp trace must be ``EXIT``; the builder
    appends it automatically.
    """

    instructions: List[Instruction] = field(default_factory=list)

    def __post_init__(self) -> None:
        # ``inst.info`` is a plain attribute; ``inst.opcode.is_exit`` pays the
        # Enum property descriptor once per instruction of every trace built.
        if self.instructions and not self.instructions[-1].info.is_exit:
            raise ValueError("warp trace must end with EXIT")
        for inst in self.instructions[:-1]:
            if inst.info.is_exit:
                raise ValueError("EXIT may only appear as the final instruction")

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __getitem__(self, idx: int) -> Instruction:
        return self.instructions[idx]

    @property
    def dynamic_instructions(self) -> int:
        """Instruction count excluding the trailing EXIT."""
        return max(0, len(self.instructions) - 1)

    def max_register(self) -> int:
        """Highest architectural register id referenced, or -1 if none."""
        regs = set().union(*[inst.src_regs for inst in self.instructions])
        regs.update([inst.dst_reg for inst in self.instructions])
        regs.discard(None)
        return max(regs, default=-1)

    def register_reads(self) -> int:
        """Total register-file source-operand reads in the trace."""
        return sum(inst.num_src_operands for inst in self.instructions)

    def count_opcode(self, opcode: Opcode) -> int:
        return sum(1 for inst in self.instructions if inst.opcode is opcode)

    @staticmethod
    def from_instructions(instructions: Sequence[Instruction]) -> "WarpTrace":
        """Build a trace, appending EXIT if the sequence does not end in one."""
        insts = list(instructions)
        if not insts or not insts[-1].info.is_exit:
            from ..isa import exit_

            insts.append(exit_())
        return WarpTrace(insts)
