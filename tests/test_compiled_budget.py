"""Memory budget of compiled code, counted in bytes rather than time.

One ceiling on pb-sgemm lowered for ``(warp_swizzle, 8)``: the bytes that
allocations made in ``repro/trace/compiled.py`` still hold once lowering
is done, per instruction of the kernel's unique warp traces.  Eight bank
rows cost 64 bytes an instruction by themselves (one pointer each); the
rest is the byte columns, the two scoreboard columns and their distinct
masks (≈ 130 bytes an instruction in all).  Bank tuples shared only
within one row, as a table per row keeps them, come to ≈ 400 and fail it.
"""

from __future__ import annotations

import gc
import tracemalloc

import repro.trace.compiled as compiled_module
from repro.regalloc import get_mapping
from repro.trace import compile_kernel
from repro.workloads import get_kernel

RETAINED_BYTES_PER_INSTRUCTION = 160


def test_retained_bytes_per_instruction():
    kernel = get_kernel("pb-sgemm")
    gc.collect()
    tracemalloc.start()
    try:
        compile_kernel(kernel, get_mapping("warp_swizzle"), 8)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    mine = snapshot.filter_traces([tracemalloc.Filter(True, compiled_module.__file__)])
    retained = sum(stat.size for stat in mine.statistics("filename"))
    insts = sum(len(trace.ops) for trace in kernel.ctas[0].warps)
    assert insts == 7584
    per_inst = retained / insts
    assert per_inst <= RETAINED_BYTES_PER_INSTRUCTION, f"{per_inst:.1f} bytes/instruction"
