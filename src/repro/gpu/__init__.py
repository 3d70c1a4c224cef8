"""Top-level GPU model: SM array, thread-block scheduler, cycle loop."""

from typing import TYPE_CHECKING

from .._lazy import lazy_package

if TYPE_CHECKING:
    from .gpu import GPU, DeadlockError, simulate
    from .kernel import KernelLaunch
    from .tb_scheduler import ThreadBlockScheduler

__all__ = lazy_package(
    __name__,
    {
        "gpu": ["GPU", "DeadlockError", "simulate"],
        "kernel": ["KernelLaunch"],
        "tb_scheduler": ["ThreadBlockScheduler"],
    },
)
