"""Fluent construction of synthetic warp and kernel traces.

:class:`TraceBuilder` is the low-level brick used by the microbenchmarks and
the suite-profile generator: it emits instruction streams with controllable
register working sets, operand counts, and memory behaviour.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..isa import Instruction, MemRef, Opcode, bar
from .kernel_trace import CTATrace, KernelTrace
from .warp_trace import WarpTrace


class TraceBuilder:
    """Accumulates instructions for a single warp trace."""

    def __init__(self) -> None:
        self._insts: List[Instruction] = []

    # -- raw --------------------------------------------------------------

    def emit(self, inst: Instruction) -> "TraceBuilder":
        self._insts.append(inst)
        return self

    def extend(self, insts: Sequence[Instruction]) -> "TraceBuilder":
        self._insts.extend(insts)
        return self

    # -- common shapes ------------------------------------------------------

    def fma_chain(self, count: int, base_reg: int = 0, regs: int = 8) -> "TraceBuilder":
        """``count`` dependent FFMA instructions cycling a small register window.

        Models the FMA microbenchmark of Sec. III-B: arithmetic on data
        resident in the register file.
        """
        if regs < 4:
            raise ValueError("fma_chain needs at least 4 registers")
        for i in range(count):
            d = base_reg + (i % regs)
            a = base_reg + ((i + 1) % regs)
            b = base_reg + ((i + 2) % regs)
            c = base_reg + ((i + 3) % regs)
            self._insts.append(Instruction(Opcode.FFMA, dst_reg=d, src_regs=(a, b, c)))
        return self

    def compute_block(
        self,
        count: int,
        rng: np.random.Generator,
        regs: int = 16,
        base_reg: int = 0,
        operand_weights: Sequence[float] = (0.2, 0.4, 0.4),
        fp_fraction: float = 0.7,
        sfu_fraction: float = 0.0,
        tensor_fraction: float = 0.0,
    ) -> "TraceBuilder":
        """Emit ``count`` arithmetic instructions with a random operand mix.

        ``operand_weights`` gives the probability of 1-, 2-, and 3-source
        instructions; registers are drawn uniformly from a window of
        ``regs`` registers starting at ``base_reg``.  This is the knob the
        workload profiles use to set register-file pressure.
        """
        weights = np.asarray(operand_weights, dtype=float)
        weights = weights / weights.sum()
        n_ops = rng.choice([1, 2, 3], size=count, p=weights)
        kinds = rng.random(count)
        regs_drawn = rng.integers(base_reg, base_reg + regs, size=(count, 4))
        for i in range(count):
            k = int(n_ops[i])
            srcs = tuple(int(r) for r in regs_drawn[i, :k])
            dst = int(regs_drawn[i, 3])
            if kinds[i] < tensor_fraction:
                op = Opcode.HMMA
                srcs = tuple(int(r) for r in regs_drawn[i, :3])
            elif kinds[i] < tensor_fraction + sfu_fraction:
                op = Opcode.MUFU
                srcs = (int(regs_drawn[i, 0]),)
            elif kinds[i] < tensor_fraction + sfu_fraction + fp_fraction:
                op = (Opcode.FADD, Opcode.FMUL, Opcode.FFMA)[min(k, 3) - 1]
            else:
                op = (Opcode.SHF, Opcode.IADD, Opcode.IMAD)[min(k, 3) - 1]
            self._insts.append(Instruction(op, dst_reg=dst, src_regs=srcs))
        return self

    def global_load(
        self,
        dst: int,
        addr_reg: int,
        base_address: int,
        num_lines: int = 1,
    ) -> "TraceBuilder":
        self._insts.append(
            Instruction(
                Opcode.LDG,
                dst_reg=dst,
                src_regs=(addr_reg,),
                mem=MemRef(base_address=base_address, num_lines=num_lines),
            )
        )
        return self

    def global_store(
        self,
        data_reg: int,
        addr_reg: int,
        base_address: int,
        num_lines: int = 1,
    ) -> "TraceBuilder":
        self._insts.append(
            Instruction(
                Opcode.STG,
                src_regs=(data_reg, addr_reg),
                mem=MemRef(base_address=base_address, num_lines=num_lines, is_store=True),
            )
        )
        return self

    def shared_load(self, dst: int, addr_reg: int) -> "TraceBuilder":
        self._insts.append(Instruction(Opcode.LDS, dst_reg=dst, src_regs=(addr_reg,)))
        return self

    def barrier(self) -> "TraceBuilder":
        self._insts.append(bar())
        return self

    def build(self) -> WarpTrace:
        """Finalize into a :class:`WarpTrace` (EXIT appended automatically)."""
        return WarpTrace.from_instructions(self._insts)


def make_cta(warp_traces: Sequence[WarpTrace]) -> CTATrace:
    return CTATrace(list(warp_traces))


def make_kernel(
    name: str,
    warp_traces: Sequence[WarpTrace],
    num_ctas: int = 1,
    regs_per_thread: Optional[int] = None,
    shared_mem_per_cta: int = 0,
) -> KernelTrace:
    """Kernel of ``num_ctas`` identical CTAs built from ``warp_traces``.

    ``regs_per_thread`` defaults to the smallest count covering every
    register the traces reference.
    """
    cta = make_cta(warp_traces)
    if regs_per_thread is None:
        regs_per_thread = max(8, cta.max_register() + 1)
    return KernelTrace.uniform(
        name,
        cta,
        num_ctas=num_ctas,
        regs_per_thread=regs_per_thread,
        shared_mem_per_cta=shared_mem_per_cta,
    )
