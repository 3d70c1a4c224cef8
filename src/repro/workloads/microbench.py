"""Microbenchmarks from the paper's hardware study (Sec. III, Fig. 3/4)
and the collector-unit validation suite (Sec. V).

The FMA microbenchmark family has 8 compute warps per thread block, each
performing a chain of register-resident FFMA instructions and then waiting
at a CTA-wide barrier:

``baseline``
    8 warps, all compute.
``balanced``
    8 compute warps + 24 empty warps, compute spread so that round-robin
    assignment gives each sub-core the same compute load (Fig. 4 middle).
``unbalanced``
    8 compute + 24 empty, compute warps at indices 0, 4, 8, ... so that
    round-robin assignment lands *all* compute on sub-core 0 (Fig. 4
    right) — the pathological 3.9x case.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List

from ..trace import KernelTrace, TraceBuilder, WarpTrace, make_kernel

#: Fig. 4 layouts.
FMA_LAYOUTS = ("baseline", "balanced", "unbalanced")

#: FFMA chain length per compute thread in the paper's microbenchmark.
PAPER_FMA_COUNT = 4096


def _fma_warp(fmas: int) -> WarpTrace:
    return TraceBuilder().fma_chain(fmas).barrier().build()


def _empty_warp() -> WarpTrace:
    return TraceBuilder().barrier().build()


def fma_microbenchmark(
    layout: str,
    fmas: int = 512,
    num_ctas: int = 1,
    num_subcores: int = 4,
    compute_warps: int = 8,
    empty_warps: int = 24,
) -> KernelTrace:
    """The Fig. 3/4 FMA microbenchmark.

    ``fmas`` defaults to a shortened chain (512 instead of the paper's
    4096) — the speedup ratios converge well before that; pass
    ``PAPER_FMA_COUNT`` for the full-length run.
    """
    if layout not in FMA_LAYOUTS:
        raise ValueError(f"layout must be one of {FMA_LAYOUTS}")
    if layout == "baseline":
        warps = [_fma_warp(fmas) for _ in range(compute_warps)]
        return make_kernel(f"fma-{layout}", warps, num_ctas=num_ctas)

    total = compute_warps + empty_warps
    if layout == "unbalanced":
        # Every sub-core-count-th warp: round robin maps them all to
        # sub-core 0.
        compute_ids = set(range(0, total, num_subcores))
    else:  # balanced
        # One compute warp per (sub-core, row) cell: indices i*N + (i % N)
        # walk the diagonal of Fig. 4's layout grid.
        compute_ids = {
            i * num_subcores + (i % num_subcores) for i in range(compute_warps)
        }
    if len(compute_ids) != compute_warps:
        raise ValueError("layout does not produce the requested compute warps")
    warps = [
        _fma_warp(fmas) if i in compute_ids else _empty_warp() for i in range(total)
    ]
    return make_kernel(f"fma-{layout}", warps, num_ctas=num_ctas)


def scaled_imbalance_microbenchmark(
    imbalance: int,
    base_fmas: int = 64,
    total_warps: int = 32,
    num_ctas: int = 1,
) -> KernelTrace:
    """The Fig. 8 workload: unbalanced FMA with a scalable imbalance factor.

    Every 4th warp executes ``base_fmas * imbalance`` FFMAs; the rest
    execute ``base_fmas``.  At ``imbalance == 1`` the block is uniform;
    increasing it deepens the inter-warp divergence that sub-core
    assignment must smooth.
    """
    if imbalance < 1:
        raise ValueError("imbalance must be >= 1")
    warps: List[WarpTrace] = []
    for i in range(total_warps):
        n = base_fmas * imbalance if i % 4 == 0 else base_fmas
        warps.append(_fma_warp(n))
    return make_kernel(f"fma-imbalance-{imbalance}x", warps, num_ctas=num_ctas)


# -- Sec. V collector-unit validation suite -----------------------------------
#
# Seven small kernels that stress register-file bank conflicts in different
# ways.  The paper correlates Accel-Sim cycle counts at 1-4 CUs/sub-core
# against V100 silicon; we substitute an analytical silicon model (see
# repro.experiments.cu_validation) and keep the same seven stress shapes.

def _conflict_warp(insts: int, operands: int, window: int, stride: int) -> WarpTrace:
    """Arithmetic chain whose sources walk a register window with ``stride``.

    ``stride == 2`` keeps all operands in one bank (worst case for a 2-bank
    slice); ``stride == 1`` alternates banks.  FP and INT opcodes alternate
    so the stress sits in the read-operand stage, not one execution port.
    """
    from ..isa import Instruction, Opcode

    fp_ops = {1: Opcode.FADD, 2: Opcode.FADD, 3: Opcode.FFMA}
    int_ops = {1: Opcode.SHF, 2: Opcode.IADD, 3: Opcode.IMAD}
    body = []
    for i in range(insts):
        srcs = tuple((i * operands + k * stride) % window for k in range(operands))
        dst = window + (i % 8)
        ops = fp_ops if i % 2 == 0 else int_ops
        body.append(Instruction(ops[operands], dst_reg=dst, src_regs=srcs))
    return WarpTrace.from_instructions(body)


#: The seven stress shapes: name -> (operands, register window, stride), or
#: ``None`` for ``ub-mixed``, which alternates 2-op and 3-op instructions.
CU_VALIDATION_SHAPES = {
    "ub-2op-conflict": (2, 8, 2),    # both operands in one bank
    "ub-2op-spread": (2, 8, 1),      # operands alternate banks
    "ub-3op-conflict": (3, 12, 2),   # three operands, one bank
    "ub-3op-spread": (3, 12, 1),     # three operands, spread
    "ub-1op": (1, 8, 1),             # single-source stream
    "ub-3op-window4": (3, 4, 1),     # tiny register window, heavy reuse
    "ub-mixed": None,                # alternating 2-op / 3-op
}


def _mixed_warp(insts: int) -> WarpTrace:
    from ..isa import Instruction, Opcode

    body = []
    for i in range(insts // 2):
        dst = 12 + (i % 8)
        body.append(Instruction(Opcode.IADD, dst_reg=dst, src_regs=(i % 8, (i + 2) % 8)))
        body.append(
            Instruction(Opcode.FFMA, dst_reg=dst, src_regs=(i % 8, (i + 1) % 8, (i + 3) % 8))
        )
    return WarpTrace.from_instructions(body)


def cu_validation_microbenchmark(name: str, insts: int = 256, warps: int = 16) -> KernelTrace:
    """One of the seven bank-conflict stress kernels (:data:`CU_VALIDATION_SHAPES`)."""
    shape = CU_VALIDATION_SHAPES[name]
    trace = _mixed_warp(insts) if shape is None else _conflict_warp(insts, *shape)
    return make_kernel(name, [trace] * warps)


#: Kernel builders a simulation point can name in place of a registry app,
#: called with the point's ``kernel`` pairs as keyword arguments.
BUILDERS: Dict[str, Callable[..., KernelTrace]] = {
    "fma_microbenchmark": fma_microbenchmark,
    "scaled_imbalance_microbenchmark": scaled_imbalance_microbenchmark,
    **{n: partial(cu_validation_microbenchmark, n) for n in CU_VALIDATION_SHAPES},
}
