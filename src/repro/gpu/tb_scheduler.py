"""The thread-block (CTA) scheduler.

Dispatches CTAs to SMs in round-robin order, subject to each SM's
occupancy checks (warp slots per sub-core, registers, shared memory, CTA
count).  Supports concurrent kernels: with several kernels launched, the
scheduler interleaves their CTA queues round-robin, modelling concurrent
kernel execution on one device — the scenario behind the paper's fourth
partitioning effect (diverse register-capacity demands across sub-cores).

CTAs of each kernel are issued in grid order; when no pending CTA fits
anywhere the scheduler waits for an SM to free resources (Table I: thread
block scheduling happens at kernel launch and on CTA completion).
"""

from __future__ import annotations

from typing import List, Sequence, TYPE_CHECKING

from ..trace import KernelTrace

if TYPE_CHECKING:  # pragma: no cover
    from ..core.sm import StreamingMultiprocessor


class _KernelQueue:
    """Dispatch cursor over one kernel's CTAs."""

    __slots__ = ("kernel", "next_cta")

    def __init__(self, kernel: KernelTrace):
        self.kernel = kernel
        self.next_cta = 0

    @property
    def pending(self) -> int:
        return self.kernel.num_ctas - self.next_cta

    @property
    def head(self):
        return self.kernel.ctas[self.next_cta]


class ThreadBlockScheduler:
    """Greedy round-robin CTA dispatcher over a fixed SM set."""

    def __init__(self, sms: List["StreamingMultiprocessor"]):
        if not sms:
            raise ValueError("need at least one SM")
        self.sms = sms
        self._queues: List[_KernelQueue] = []
        self._rr_cursor = 0
        self._kernel_cursor = 0
        self._cta_counter = 0

    # -- launching -----------------------------------------------------------

    def launch(self, kernel: KernelTrace) -> None:
        """Launch a single kernel (errors if work is already in flight)."""
        if self._queues and not self.done:
            raise RuntimeError("a kernel is already in flight")
        self.launch_many([kernel])

    def launch_many(self, kernels: Sequence[KernelTrace]) -> None:  # simcheck: reset-hook
        """Launch several kernels for concurrent execution.

        A launch is the scheduler's reset point: every dispatch cursor —
        including the CTA id counter — restarts so a relaunch on a reused
        GPU numbers CTAs exactly as a fresh one would (CTA ids reach
        traces and per-CTA latency stats).
        """
        if not kernels:
            raise ValueError("need at least one kernel")
        if self._queues and not self.done:
            raise RuntimeError("kernels are already in flight")
        for kernel in kernels:
            for cta in kernel.ctas:
                if not self.sms[0].can_ever_fit(kernel, cta):
                    raise ValueError(
                        f"kernel {kernel.name!r} has a CTA that can never fit on an SM"
                    )
        self._queues = [_KernelQueue(k) for k in kernels]
        self._rr_cursor = 0
        self._kernel_cursor = 0
        self._cta_counter = 0

    # -- state ----------------------------------------------------------------

    @property
    def done(self) -> bool:
        """All CTAs of all kernels dispatched (not necessarily completed)."""
        return all(q.pending == 0 for q in self._queues)

    @property
    def pending_ctas(self) -> int:
        return sum(q.pending for q in self._queues)

    # -- dispatch ---------------------------------------------------------------

    def fill(self, now: int) -> int:
        """Place as many pending CTAs as currently fit; returns placements."""
        if not self._queues:
            return 0
        placed = 0
        num_sms = len(self.sms)
        num_kernels = len(self._queues)
        # Keep trying until a full sweep over (kernel, SM) pairs places
        # nothing.
        progress = True
        while progress:
            progress = False
            for _ in range(num_kernels):
                queue = self._queues[self._kernel_cursor % num_kernels]
                self._kernel_cursor += 1
                if queue.pending == 0:
                    continue
                for _ in range(num_sms):
                    sm = self.sms[self._rr_cursor % num_sms]
                    self._rr_cursor += 1
                    if sm.try_allocate_cta(
                        queue.kernel, queue.head, self._cta_counter, now
                    ):
                        queue.next_cta += 1
                        self._cta_counter += 1
                        placed += 1
                        progress = True
                        break
        return placed
