"""repro — reproduction of *Mitigating GPU Core Partitioning Performance
Effects* (Barnes, Shen & Rogers, HPCA 2023).

A cycle-level GPU SM simulator with sub-core partitioning, register-bank-
aware (RBA) warp scheduling, and hashed sub-core warp assignment, plus the
synthetic workloads and experiment harnesses that regenerate the paper's
evaluation figures.

Quickstart::

    from repro import simulate, volta_v100, rba
    from repro.workloads import fma_microbenchmark

    kernel = fma_microbenchmark("unbalanced")
    base = simulate(kernel, volta_v100(), num_sms=1)
    fast = simulate(kernel, rba(), num_sms=1)
    print(base.cycles, fast.cycles)
"""

from typing import TYPE_CHECKING

from ._lazy import lazy_package

if TYPE_CHECKING:
    from .config import (
        AssignmentPolicy,
        GPUConfig,
        MemoryConfig,
        SchedulerPolicy,
        ampere_a100,
        bank_stealing,
        fully_connected,
        kepler,
        rba,
        shuffle,
        shuffle_rba,
        srr,
        tpch_config,
        volta_v100,
        with_cus,
    )
    from .gpu import GPU, DeadlockError, KernelLaunch, simulate
    from .metrics import SimStats, geomean, percent_speedup, speedup
    from .obs import Tracer, write_chrome_trace
    from .trace import CTATrace, KernelTrace, TraceBuilder, WarpTrace, make_kernel

__version__ = "1.0.0"

__all__ = lazy_package(
    __name__,
    {
        "config": [
            "AssignmentPolicy", "GPUConfig", "MemoryConfig", "SchedulerPolicy",
            "ampere_a100", "bank_stealing", "fully_connected", "kepler", "rba",
            "shuffle", "shuffle_rba", "srr", "tpch_config", "volta_v100", "with_cus",
        ],
        "gpu": ["GPU", "DeadlockError", "KernelLaunch", "simulate"],
        "metrics": ["SimStats", "geomean", "percent_speedup", "speedup"],
        "obs": ["Tracer", "write_chrome_trace"],
        "trace": [
            "CTATrace", "KernelTrace", "TraceBuilder", "WarpTrace", "make_kernel",
        ],
    },
) + ["__version__"]
