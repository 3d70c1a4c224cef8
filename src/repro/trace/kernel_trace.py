"""Kernel traces: a grid of thread blocks, each a list of warp traces.

A :class:`KernelTrace` also records the per-CTA resource demands (registers
per thread, shared memory) that the thread-block scheduler uses to decide
how many CTAs fit on an SM — the occupancy calculation that, combined with
CTA-granularity deallocation, produces the sub-core imbalance pathology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .warp_trace import WarpTrace

#: Threads per warp on every architecture the paper studies.
WARP_SIZE = 32


@dataclass
class CTATrace:
    """The warp traces of one thread block (CTA)."""

    warps: List[WarpTrace]

    def __post_init__(self) -> None:
        if not self.warps:
            raise ValueError("a CTA must contain at least one warp")

    @property
    def num_warps(self) -> int:
        return len(self.warps)

    @property
    def num_threads(self) -> int:
        return len(self.warps) * WARP_SIZE

    @property
    def dynamic_instructions(self) -> int:
        return sum(w.dynamic_instructions for w in self.warps)

    def max_register(self) -> int:
        return max(w.max_register() for w in self.warps)


@dataclass
class KernelTrace:
    """A full kernel: CTAs plus launch-time resource requirements."""

    name: str
    ctas: List[CTATrace]
    regs_per_thread: int = 32
    shared_mem_per_cta: int = 0
    #: Average same-bank serialization degree of this kernel's LDS/STS
    #: accesses (1 = conflict-free); see :mod:`repro.memory.shared_memory`.
    shared_conflict_degree: int = 1

    def __post_init__(self) -> None:
        if not self.ctas:
            raise ValueError("a kernel must contain at least one CTA")
        if self.regs_per_thread < 1:
            raise ValueError("regs_per_thread must be >= 1")
        if self.shared_mem_per_cta < 0:
            raise ValueError("shared_mem_per_cta must be >= 0")
        needed, scanned = 0, None
        for cta in self.ctas:
            # ``uniform`` repeats one CTATrace by reference: scan it once.
            if cta is not scanned:
                needed = max(needed, cta.max_register() + 1)
                scanned = cta
        if needed > self.regs_per_thread:
            raise ValueError(
                f"kernel {self.name!r} references register R{needed - 1} but "
                f"declares only {self.regs_per_thread} registers per thread"
            )

    @property
    def num_ctas(self) -> int:
        return len(self.ctas)

    @property
    def warps_per_cta(self) -> int:
        """Warps in the first CTA (all CTAs of a kernel are uniform-size)."""
        return self.ctas[0].num_warps

    @property
    def total_warps(self) -> int:
        return sum(c.num_warps for c in self.ctas)

    @property
    def dynamic_instructions(self) -> int:
        return sum(c.dynamic_instructions for c in self.ctas)

    def regs_per_warp(self) -> int:
        return self.regs_per_thread * WARP_SIZE

    def regs_per_cta(self) -> int:
        return self.regs_per_warp() * self.warps_per_cta

    @staticmethod
    def uniform(
        name: str,
        cta: CTATrace,
        num_ctas: int,
        regs_per_thread: int = 32,
        shared_mem_per_cta: int = 0,
        shared_conflict_degree: int = 1,
    ) -> "KernelTrace":
        """A kernel whose CTAs all share one trace (replicated by reference —
        warp state lives in the simulator, not the trace, so sharing is safe).
        """
        if num_ctas < 1:
            raise ValueError("num_ctas must be >= 1")
        return KernelTrace(
            name=name,
            ctas=[cta] * num_ctas,
            regs_per_thread=regs_per_thread,
            shared_mem_per_cta=shared_mem_per_cta,
            shared_conflict_degree=shared_conflict_degree,
        )
