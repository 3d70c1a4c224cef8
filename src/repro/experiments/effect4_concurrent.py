"""Extension study — the paper's fourth partitioning effect.

Sec. I lists four potential sub-core performance effects; the fourth:
"if warps assigned to an SM have diverse register-file capacity demands,
which can occur when SMs execute concurrent kernels, a lack of register
space on one sub-core may prevent others with capacity from accepting
work."  The paper measures effects 1 and 2 as dominant and does not
evaluate effect 4 further; this study supplies that experiment.

Two kernels run concurrently: a register-*fat* kernel (large per-thread
register footprint) and a register-*thin* one.  On the partitioned SM the
register file is sliced per sub-core, so a fat CTA needs its per-sub-core
share on *every* sub-core its warps land on; interleaved thin CTAs
fragment those slices.  The monolithic SM draws from one pooled register
file.  The reported metric is concurrency efficiency:
``sequential_time / concurrent_time`` per architecture — the fully-
connected SM should lose less of its concurrency benefit to
fragmentation, and the effect should be visibly smaller than effects 1-2
(consistent with the paper's triage).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..config import fully_connected, volta_v100
from ..gpu import GPU
from ..trace import KernelTrace, TraceBuilder, make_kernel

ARCHS = ("partitioned", "fully_connected")


def _compute_kernel(name: str, regs_per_thread: int, num_ctas: int,
                    insts: int = 96, warps: int = 8) -> KernelTrace:
    traces = [TraceBuilder().fma_chain(insts).build() for _ in range(warps)]
    return make_kernel(name, traces, num_ctas=num_ctas, regs_per_thread=regs_per_thread)


def _memory_kernel(name: str, regs_per_thread: int, num_ctas: int,
                   loads: int = 24, warps: int = 8) -> KernelTrace:
    """A latency-bound streaming kernel: each load feeds the next address."""
    traces = []
    for w in range(warps):
        tb = TraceBuilder()
        for i in range(loads):
            # dependent pointer-chase: dst doubles as next address register
            tb.global_load(dst=1, addr_reg=1, base_address=(w << 22) + i * 8192,
                           num_lines=4)
        traces.append(tb.build())
    return make_kernel(name, traces, num_ctas=num_ctas, regs_per_thread=regs_per_thread)


@dataclass
class Effect4Result:
    #: arch -> (sequential cycles, concurrent cycles)
    cycles: Dict[str, Tuple[int, int]]

    def efficiency(self, arch: str) -> float:
        seq, conc = self.cycles[arch]
        return seq / conc

    def fragmentation_loss(self) -> float:
        """Concurrency-efficiency points the partitioned SM gives up."""
        return self.efficiency("fully_connected") - self.efficiency("partitioned")


def run(
    fat_regs: int = 224,
    thin_regs: int = 16,
    num_ctas: int = 6,
) -> Effect4Result:
    configs = {
        "partitioned": volta_v100(),
        "fully_connected": fully_connected(),
    }
    cycles: Dict[str, Tuple[int, int]] = {}
    for arch, cfg in configs.items():
        # fat: compute-bound with a huge register footprint;
        # thin: latency-bound pointer-chasing with a small footprint —
        # complementary bottlenecks, so concurrency has something to win.
        fat = _compute_kernel("fat", fat_regs, num_ctas)
        thin = _memory_kernel("thin", thin_regs, num_ctas)
        gpu_seq = GPU(cfg, num_sms=1)
        seq = gpu_seq.run(fat).cycles + gpu_seq.run(thin).cycles
        gpu_conc = GPU(cfg, num_sms=1)
        conc = gpu_conc.run_concurrent([fat, thin]).cycles
        cycles[arch] = (seq, conc)
    return Effect4Result(cycles)


def format_result(res: Effect4Result) -> str:
    lines = [
        "Extension: effect #4 — concurrent kernels with diverse register demands",
        "-" * 72,
    ]
    for arch in ARCHS:
        seq, conc = res.cycles[arch]
        lines.append(
            f"{arch:16s} sequential={seq:7d}  concurrent={conc:7d}  "
            f"efficiency={res.efficiency(arch):.2f}x"
        )
    lines.append(
        f"\nregister-slice fragmentation costs the partitioned SM "
        f"{res.fragmentation_loss() * 100:+.1f} efficiency points "
        "(the paper classifies this effect as minor relative to bank "
        "conflicts and issue imbalance)"
    )
    return "\n".join(lines)
