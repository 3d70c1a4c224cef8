"""Trace-driven workload representation: warp, CTA, and kernel traces."""

from typing import TYPE_CHECKING

from .._lazy import lazy_package

if TYPE_CHECKING:
    from .builder import TraceBuilder, make_cta, make_kernel
    from .code_cache import CACHE_DIR_ENV, CODE_VERSION, code_key, default_cache_dir
    from .compiled import CompiledWarp, compile_kernel, compile_warp_trace
    from .kernel_trace import WARP_SIZE, CTATrace, KernelTrace
    from .text_format import (
        TraceParseError,
        dump_kernel,
        format_instruction,
        load_kernel,
        parse_instruction,
        parse_kernel,
        save_kernel,
    )
    from .warp_trace import WarpTrace

__all__ = lazy_package(
    __name__,
    {
        "builder": ["TraceBuilder", "make_cta", "make_kernel"],
        "code_cache": [
            "CACHE_DIR_ENV", "CODE_VERSION", "code_key", "default_cache_dir",
        ],
        "compiled": ["CompiledWarp", "compile_kernel", "compile_warp_trace"],
        "kernel_trace": ["WARP_SIZE", "CTATrace", "KernelTrace"],
        "text_format": [
            "TraceParseError", "dump_kernel", "format_instruction", "load_kernel",
            "parse_instruction", "parse_kernel", "save_kernel",
        ],
        "warp_trace": ["WarpTrace"],
    },
)
