"""Profile → kernel-trace synthesis.

Turns an :class:`~repro.workloads.profiles.AppProfile` into a concrete
:class:`~repro.trace.KernelTrace`.  Generation is fully deterministic: the
per-warp RNG is seeded from ``(profile.seed, warp_index)``, so the same
profile always yields byte-identical traces regardless of how many warps
or CTAs other callers have generated.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..isa import Opcode
from ..trace import CTATrace, KernelTrace, WarpTrace
from ..trace.warp_trace import OPCODES
from .profiles import AppProfile

#: Cache-line size assumed by generated addresses.
LINE_BYTES = 128
#: Hot-set lines per warp for local (hit-side) accesses.
HOT_LINES = 16

#: Opcode of each instruction code ``build_warp_trace`` computes: the four
#: memory/special kinds, then plain arithmetic by type and operand count.
_STG, _LDG, _LDS, _MUFU, _HMMA, _ARITH_FP, _ARITH_INT = 0, 1, 2, 3, 4, 5, 8
_OPCODE_IDS = bytes(
    OPCODES.index(op)
    for op in (
        Opcode.STG, Opcode.LDG, Opcode.LDS, Opcode.MUFU, Opcode.HMMA,
        Opcode.FADD, Opcode.FMUL, Opcode.FFMA,
        Opcode.SHF, Opcode.IADD, Opcode.IMAD,
    )
).ljust(256, b"\0")
_BAR, _EXIT = (bytes([OPCODES.index(op)]) for op in (Opcode.BAR, Opcode.EXIT))


def build_warp_trace(
    profile: AppProfile,
    warp_index: int,
    num_insts: int,
    sources: Optional[Dict[Tuple[int, ...], Tuple[int, ...]]] = None,
) -> WarpTrace:
    """Synthesize one warp's instruction stream.

    Every decision is a function of the bulk draws and the instruction
    index, so whole columns (opcode, destination, sources, address) are
    computed array-wise and handed to the trace as they are: no
    ``Instruction`` is built.  ``sources`` interns source-register tuples:
    an equal tuple already in it is used instead of a new one.
    """
    rng = np.random.default_rng((profile.seed, warp_index))
    p = profile

    weights = np.asarray(p.operand_weights, dtype=float)
    weights = weights / weights.sum()

    # Pre-draw every random decision in bulk.
    kind_draw = rng.random(num_insts)
    nops = rng.choice(np.array([1, 2, 3]), size=num_insts, p=weights)
    bias_draw = rng.random(num_insts) < p.bank_bias
    dep_draw = rng.random(num_insts) < p.dep_fraction
    fp_draw = rng.random(num_insts) < p.fp_fraction
    store_draw = rng.random(num_insts) < p.store_fraction
    local_draw = rng.random(num_insts) < p.mem_locality
    reg_draw = rng.integers(0, p.read_regs, size=(num_insts, 3))
    biased_draw = rng.integers(0, max(1, p.read_regs // 2), size=(num_insts, 3))
    hot_draw = rng.integers(0, HOT_LINES, size=num_insts)
    first_parity = int(rng.integers(0, 2))

    index = np.arange(num_insts)

    # Instruction kind: cumulative cuts over one uniform draw.  The cut a
    # draw falls under is its code (LDG, LDS, MUFU, HMMA); past the last
    # cut is plain arithmetic, and a global access may be a store.
    mem_cut = p.mem_fraction
    lds_cut = mem_cut + p.lds_fraction
    sfu_cut = lds_cut + p.sfu_fraction
    tensor_cut = sfu_cut + p.tensor_fraction
    code = 1 + np.searchsorted((mem_cut, lds_cut, sfu_cut, tensor_cut), kind_draw, side="right")
    is_global = code == _LDG
    is_store = is_global & store_draw
    code[is_store] = _STG
    is_arith = code > _HMMA
    code[is_arith] = (np.where(fp_draw, _ARITH_FP, _ARITH_INT) + nops - 1)[is_arith]

    # Bank-coherent phases: all biased instructions inside one phase use
    # the same register parity class; it flips every ``phase_len``.
    parity = (first_parity + (index + 1) // p.phase_len) & 1
    drawn = np.arange(3) < nops[:, None]
    src = np.where(
        bias_draw[:, None] & drawn,
        (2 * biased_draw + parity[:, None]) % p.read_regs,
        reg_draw,
    )
    # A dependent instruction reads its predecessor's result, unless that
    # was a store (no destination) or there is no predecessor.
    dst = p.read_regs + index % p.write_regs
    chained = dep_draw[1:] & ~is_store[:-1]
    src[1:][chained, 0] = dst[:-1][chained]

    # Source-operand shape per kind; HMMA pads to three with ``reg_draw``,
    # which the columns of ``src`` beyond ``nops`` already hold.
    addr_reg = p.read_regs + p.write_regs  # dedicated address register
    is_load = (code == _LDG) | (code == _LDS)
    num_src = nops.copy()
    num_src[code == _HMMA] = 3
    num_src[is_load | (code == _MUFU)] = 1
    num_src[is_store] = 2
    src[is_load, 0] = addr_reg
    src[is_store, 1] = addr_reg

    # Per-warp address regions: a small hot set (locality hits) and an
    # unbounded stream (misses) that each streaming load advances.
    hot_base = (warp_index + 1) << 24
    streaming = (code == _LDG) & ~local_draw
    stream_line = ((warp_index + 1) << 16) + p.coalesced_lines * np.cumsum(streaming)
    line = np.where(local_draw, hot_base + hot_draw, stream_line)
    line[is_store] = (stream_line + index)[is_store]
    lines = np.where(streaming | is_store, p.coalesced_lines, 1)

    # The trace's columns, closed by the optional barrier and the EXIT.
    tail = (_BAR if p.barrier else b"") + _EXIT
    ops = code.astype(np.uint8).tobytes().translate(_OPCODE_IDS) + tail
    dsts = dst.tolist()
    for i in np.flatnonzero(is_store).tolist():
        dsts[i] = None
    intern = ({} if sources is None else sources).setdefault
    rows = (tuple(row[:n]) for row, n in zip(src.tolist(), num_src.tolist()))
    srcs = [intern(t, t) for t in rows]
    mem = dict(
        zip(
            np.flatnonzero(is_global).tolist(),
            zip(
                (line[is_global] * LINE_BYTES).tolist(),
                lines[is_global].tolist(),
                is_store[is_global].tolist(),
            ),
        )
    )
    return WarpTrace.from_columns(
        ops,
        tuple(dsts + [None] * len(tail)),
        tuple(srcs + [()] * len(tail)),
        mem,
    )


def build_cta_trace(profile: AppProfile) -> CTATrace:
    """One CTA's warps; equal source-register tuples are one object across them."""
    lengths = profile.warp_lengths()
    sources: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
    return CTATrace(
        [build_warp_trace(profile, i, n, sources) for i, n in enumerate(lengths)]
    )


def build_kernel(profile: AppProfile) -> KernelTrace:
    """Synthesize the full kernel trace for ``profile``."""
    cta = build_cta_trace(profile)
    return KernelTrace.uniform(
        profile.name,
        cta,
        num_ctas=profile.num_ctas,
        regs_per_thread=profile.regs_per_thread,
        shared_mem_per_cta=profile.shared_mem_per_cta,
        shared_conflict_degree=profile.shared_conflict_degree,
    )
