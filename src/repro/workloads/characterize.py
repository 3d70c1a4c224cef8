"""Static trace characterization.

``characterize`` computes, from a kernel trace alone (no simulation), the
properties that determine which partitioning effect an application is
exposed to — the quantities the paper's analysis reasons about when
sorting its 112 apps into imbalance-bound, read-operand-bound and
insensitive populations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..regalloc import get_mapping
from ..trace import KernelTrace


@dataclass(frozen=True)
class TraceCharacteristics:
    """Static properties of one kernel trace."""

    name: str
    dynamic_instructions: int
    warps_per_cta: int
    num_ctas: int

    #: fraction of instructions per functional-unit class
    unit_mix: Dict[str, float]
    #: mean register-file source operands per instruction
    mean_operands: float
    #: register reads per instruction (same as mean_operands; kept for
    #: symmetry with the paper's "register intensive" phrasing)
    reads_per_instruction: float
    #: fraction of instructions touching global memory
    memory_fraction: float

    #: max warp length / mean warp length within a CTA — the paper's
    #: inter-warp-divergence indicator (1.0 = perfectly uniform)
    interwarp_divergence: float
    #: coefficient of variation of warp lengths within a CTA
    warp_length_cov: float

    #: fraction of multi-operand instructions whose sources all land in a
    #: single bank of a 2-bank slice (intra-instruction conflict exposure)
    bank_coherence: float

    def dominant_effect(self) -> str:
        """Coarse triage into the paper's populations."""
        if self.interwarp_divergence > 1.5:
            return "issue-imbalance"
        if self.memory_fraction > 0.22:
            return "memory-bound"
        if self.reads_per_instruction > 1.8 and self.bank_coherence > 0.35:
            return "read-operand-limited"
        return "insensitive"


def characterize(kernel: KernelTrace, mapping: str = "warp_swizzle") -> TraceCharacteristics:
    """Compute :class:`TraceCharacteristics` for ``kernel``.

    Only the first CTA is scanned (CTAs of a kernel are statistically
    uniform) so characterization is cheap even for large grids.
    """
    mapper = get_mapping(mapping)
    cta = kernel.ctas[0]

    unit_counts: Dict[str, int] = {}
    total = 0
    operands = 0
    mem = 0
    multi = 0
    coherent = 0
    lengths = []
    for warp_index, warp in enumerate(cta.warps):
        lengths.append(warp.dynamic_instructions)
        for inst in warp.instructions:
            if inst.opcode.is_exit:
                continue
            total += 1
            unit = inst.opcode.unit.value
            unit_counts[unit] = unit_counts.get(unit, 0) + 1
            operands += inst.num_src_operands
            if inst.opcode.is_global_memory:
                mem += 1
            if inst.num_src_operands >= 2:
                multi += 1
                banks = {mapper(r, warp_index, 2) for r in inst.src_regs}
                if len(banks) == 1:
                    coherent += 1

    lengths_arr = np.asarray(lengths, dtype=float)
    mean_len = lengths_arr.mean() if lengths_arr.size else 0.0
    return TraceCharacteristics(
        name=kernel.name,
        dynamic_instructions=kernel.dynamic_instructions,
        warps_per_cta=cta.num_warps,
        num_ctas=kernel.num_ctas,
        unit_mix={u: c / total for u, c in sorted(unit_counts.items())} if total else {},
        mean_operands=operands / total if total else 0.0,
        reads_per_instruction=operands / total if total else 0.0,
        memory_fraction=mem / total if total else 0.0,
        interwarp_divergence=float(lengths_arr.max() / mean_len) if mean_len else 1.0,
        warp_length_cov=float(lengths_arr.std() / mean_len) if mean_len else 0.0,
        bank_coherence=coherent / multi if multi else 0.0,
    )


def characterization_table(kernels: Dict[str, KernelTrace]) -> str:
    """ASCII table of characteristics for several kernels."""
    rows = [characterize(k) for k in kernels.values()]
    header = (
        f"{'kernel':16s} {'instr':>8s} {'ops/in':>7s} {'mem%':>6s} "
        f"{'div':>6s} {'bank-coh':>9s}  effect"
    )
    lines = [header, "-" * len(header)]
    for c in rows:
        lines.append(
            f"{c.name:16s} {c.dynamic_instructions:8d} {c.mean_operands:7.2f} "
            f"{c.memory_fraction:6.1%} {c.interwarp_divergence:6.2f} "
            f"{c.bank_coherence:9.1%}  {c.dominant_effect()}"
        )
    return "\n".join(lines)
