"""The top-level GPU: SM array, shared L2/DRAM, and the cycle loop.

``GPU.run(kernel)`` simulates a kernel to completion and returns a
:class:`~repro.metrics.SimStats`.  The loop steps every non-idle SM in
lockstep but fast-forwards over stretches where no SM can make progress
(all sub-cores quiescent, waiting only on scheduled writeback events) —
this is what keeps long memory stalls cheap in a Python simulator.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from ..config import GPUConfig, volta_v100
from ..core import StreamingMultiprocessor
from ..memory import MemorySubsystem, build_dram, build_l2
from ..metrics import SimStats, SMStats
from ..obs.stall import IDLE
from ..trace import KernelTrace
from .kernel import KernelLaunch
from .tb_scheduler import ThreadBlockScheduler

if TYPE_CHECKING:  # pragma: no cover
    from ..obs import Tracer


class DeadlockError(RuntimeError):
    """Raised when resident work can make no further progress."""


class GPU:
    """A simulated GPU built from a :class:`~repro.config.GPUConfig`."""

    def __init__(
        self,
        config: Optional[GPUConfig] = None,
        num_sms: Optional[int] = None,
        collect_timeline: bool = False,
        tracer: Optional["Tracer"] = None,
    ):
        self.config = config if config is not None else volta_v100()
        if num_sms is not None:
            self.config = self.config.replace(num_sms=num_sms)
        if self.config.num_sms < 1:
            raise ValueError("num_sms must be >= 1")

        self.tracer = tracer
        self.l2 = build_l2(self.config.memory)
        self.dram = build_dram(self.config.memory)
        self.sms: List[StreamingMultiprocessor] = [
            StreamingMultiprocessor(
                sm_id=i,
                config=self.config,
                memory=MemorySubsystem(self.config, l2=self.l2, dram=self.dram),
                collect_timeline=collect_timeline,
                tracer=tracer,
            )
            for i in range(self.config.num_sms)
        ]
        self.now = 0

    # -- execution ---------------------------------------------------------

    def run(
        self,
        kernel: KernelTrace | KernelLaunch,
        max_cycles: int = 50_000_000,
    ) -> SimStats:
        """Simulate ``kernel`` to completion."""
        launch = kernel if isinstance(kernel, KernelLaunch) else KernelLaunch(kernel)
        sms = self.sms
        if launch.max_sms:
            sms = sms[: launch.max_sms]
        scheduler = ThreadBlockScheduler(sms)
        scheduler.launch(launch.trace)
        return self._run(scheduler, sms, launch.name, max_cycles)

    def run_concurrent(
        self,
        kernels: List[KernelTrace],
        max_cycles: int = 50_000_000,
    ) -> SimStats:
        """Simulate several kernels executing concurrently.

        The thread-block scheduler interleaves the kernels' CTA queues, so
        CTAs with different register/shared-memory footprints co-reside on
        the same SMs — the concurrent-kernel scenario behind the paper's
        fourth partitioning effect.
        """
        if not kernels:
            raise ValueError("need at least one kernel")
        scheduler = ThreadBlockScheduler(self.sms)
        scheduler.launch_many(kernels)
        name = "+".join(k.name for k in kernels)
        return self._run(scheduler, self.sms, name, max_cycles)

    def _run(  # simcheck: reset-hook
        self,
        scheduler: ThreadBlockScheduler,
        sms: List[StreamingMultiprocessor],
        name: str,
        max_cycles: int,
    ) -> SimStats:
        base = self._snapshot_counters(sms)
        start = self.now
        now = self.now
        # Each run() models an independent kernel launch: reset every piece
        # of transient machine state (in-flight MSHR fills, busy ports,
        # warp-id counters, scheduler pointers) so a second launch on this
        # GPU behaves byte-for-byte like a fresh one.  Statistics counters
        # stay cumulative; _snapshot_counters/_collect_stats report deltas.
        self.l2.begin_run()
        self.dram.begin_run()
        for sm in self.sms:
            sm.begin_run()
        if self.config.stall_attribution:
            for sm in sms:
                sm.begin_attribution_window(start)
        scheduler.fill(now)
        active = [sm for sm in sms if not sm.idle]
        if not active and not scheduler.done:
            raise DeadlockError(
                f"kernel {name!r}: {scheduler.pending_ctas} CTAs "
                "pending but no SM can accept them"
            )

        while active or not scheduler.done:
            if now - start > max_cycles:
                raise DeadlockError(
                    f"kernel {name!r} exceeded {max_cycles} cycles"
                )
            for sm in active:
                sm.step(now)

            # SM residency only changes when a CTA retires (resources_freed)
            # or is placed by fill(), so the active list needs rebuilding
            # only on those events rather than every iteration.
            freed = False
            for sm in active:
                if sm.resources_freed:
                    sm.resources_freed = False
                    freed = True
            if freed:
                if not scheduler.done:
                    scheduler.fill(now)
                active = [sm for sm in sms if not sm.idle]
                if not active:
                    if scheduler.done:
                        break
                    raise DeadlockError(
                        f"kernel {name!r}: {scheduler.pending_ctas} CTAs "
                        "pending but no SM can accept them"
                    )

            now = self._advance(active, now, name)

        self.now = now + 1
        if self.config.sanitize:
            for sm in sms:
                if sm.sanitizer is not None:
                    sm.sanitizer.end_of_kernel(sm, now)
        return self._collect_stats(sms, self.now - start, name, base, start)

    def _advance(self, active: List[StreamingMultiprocessor], now: int, name: str) -> int:
        """Next cycle to simulate: ``now + 1`` or a fast-forward jump.

        A jump skips the window ``[now + 1, horizon - 1]``.  When every
        active SM is dormant (all sub-cores quiescent) the window matches
        the original writeback-only fast-forward and skipped cycles carry
        no per-cycle accounting — gap attribution happens at the next step.
        When some active SM is merely waiting on execution ports, the
        window consists of cycles the simulator used to step with nothing
        to do, so each active SM reproduces those counters in closed form
        (account_skipped_steps) and the jump stays byte-identical in stats.
        """
        horizon = None
        for sm in active:
            nxt = sm.next_event(now)
            if nxt is None:
                raise DeadlockError(
                    f"kernel {name!r}: SM {sm.sm_id} has resident CTAs but no "
                    "pending events (barrier or scoreboard deadlock)"
                )
            if horizon is None or nxt < horizon:
                horizon = nxt
                if horizon == now + 1:
                    return horizon
        assert horizon is not None
        if horizon <= now + 1:
            return now + 1
        # Plain loop, not any(genexp): this runs on every fast-forward
        # decision and a generator expression allocates per evaluation.
        busy = False
        for sm in active:
            if not sm.dormant():
                busy = True
                break
        if busy:
            gap = horizon - now - 1
            for sm in active:
                sm.account_skipped_steps(now + 1, gap)
        return horizon

    # -- results -----------------------------------------------------------

    def _snapshot_counters(self, sms: List[StreamingMultiprocessor]) -> dict:
        """Counter values at run start, so stats report per-run deltas.

        Every counter in the simulator is cumulative over the GPU's
        lifetime (machine *state* resets per launch via ``begin_run``, but
        statistics never do); without the snapshot a second run would
        re-report the first kernel's work as its own.
        """
        return {
            "sms": [
                {
                    "instructions": sm.total_instructions,
                    "issue_counts": sm.issue_counts(),
                    "rf_reads": sm.total_rf_reads(),
                    "bank_conflict_cycles": sm.total_bank_conflict_cycles(),
                    "ctas_completed": sm.ctas_completed,
                    "issue_stall_no_cu": sum(sc.issue_stall_no_cu for sc in sm.subcores),
                    "issue_stall_no_ready": sum(
                        sc.issue_stall_no_ready for sc in sm.subcores
                    ),
                    "steals": sum(sc.steals for sc in sm.subcores),
                    "migrations": sm.migrations,
                    "l1_hits": sm.memory.l1.stats.hits,
                    "l1_misses": sm.memory.l1.stats.misses,
                    "timeline_len": len(sm.rf_read_timeline or ()),
                    "finish_len": len(sm.warp_finish_cycles),
                    "latency_len": len(sm.cta_latencies),
                    "stall_cycles": (
                        [dict(sc.stall_cycles) for sc in sm.subcores]
                        if sm.stall_attribution
                        else None
                    ),
                    "attr_cycles": sm._attr_cycles,
                }
                for sm in sms
            ],
            "l2_hits": self.l2.stats.hits,
            "l2_misses": self.l2.stats.misses,
            "dram_accesses": self.dram.stats.accesses,
        }

    def _collect_stats(
        self,
        sms: List[StreamingMultiprocessor],
        cycles: int,
        name: str,
        base: dict,
        start: int = 0,
    ) -> SimStats:
        sm_stats = []
        for sm, b in zip(sms, base["sms"]):
            stall_cycles = None
            if b["stall_cycles"] is not None:
                # Per-run bucket deltas, then fold the cycles this SM was
                # never stepped nor fast-forwarded over (idle between its
                # last CTA retiring and the end of the run) into ``idle`` —
                # so every issue slot of every one of ``cycles`` cycles
                # lands in exactly one bucket.
                run_attr = sm._attr_cycles - b["attr_cycles"]
                idle_slots = (cycles - run_attr) * self.config.issue_width
                stall_cycles = []
                for sc, b0 in zip(sm.subcores, b["stall_cycles"]):
                    assert sc.stall_cycles is not None
                    delta = {
                        k: v - b0[k] for k, v in sc.stall_cycles.items()
                    }
                    delta[IDLE] += idle_slots
                    stall_cycles.append(delta)
            sm_stats.append(
                SMStats(
                    sm_id=sm.sm_id,
                    instructions=sm.total_instructions - b["instructions"],
                    issue_counts=[
                        n - b0
                        for n, b0 in zip(sm.issue_counts(), b["issue_counts"])
                    ],
                    rf_reads=sm.total_rf_reads() - b["rf_reads"],
                    bank_conflict_cycles=(
                        sm.total_bank_conflict_cycles() - b["bank_conflict_cycles"]
                    ),
                    ctas_completed=sm.ctas_completed - b["ctas_completed"],
                    issue_stall_no_cu=(
                        sum(sc.issue_stall_no_cu for sc in sm.subcores)
                        - b["issue_stall_no_cu"]
                    ),
                    issue_stall_no_ready=(
                        sum(sc.issue_stall_no_ready for sc in sm.subcores)
                        - b["issue_stall_no_ready"]
                    ),
                    steals=sum(sc.steals for sc in sm.subcores) - b["steals"],
                    migrations=sm.migrations - b["migrations"],
                    # Timelines are recorded in absolute GPU cycles; report
                    # them relative to the run's start so a second run on a
                    # warm GPU yields the same payload a fresh GPU would
                    # (for a fresh run start == 0 and this is the identity).
                    rf_read_timeline=(
                        [(t - start, g) for t, g in sm.rf_read_timeline[b["timeline_len"]:]]
                        if sm.rf_read_timeline is not None
                        else None
                    ),
                    warp_finish_cycles=[
                        t - start for t in sm.warp_finish_cycles[b["finish_len"]:]
                    ],
                    cta_latencies=sm.cta_latencies[b["latency_len"]:],
                    stall_cycles=stall_cycles,
                )
            )
        l1_hits = sum(
            sm.memory.l1.stats.hits - b["l1_hits"]
            for sm, b in zip(sms, base["sms"])
        )
        l1_misses = sum(
            sm.memory.l1.stats.misses - b["l1_misses"]
            for sm, b in zip(sms, base["sms"])
        )
        stats = SimStats(
            kernel_name=name,
            config_name=self.config.name,
            cycles=cycles,
            instructions=sum(s.instructions for s in sm_stats),
            sms=sm_stats,
            l1_hits=l1_hits,
            l1_misses=l1_misses,
            l2_hits=self.l2.stats.hits - base["l2_hits"],
            l2_misses=self.l2.stats.misses - base["l2_misses"],
            dram_accesses=self.dram.stats.accesses - base["dram_accesses"],
        )
        if self.config.sanitize:
            for sm in sms:
                if sm.sanitizer is not None:
                    sm.sanitizer.check_run_stats(stats)
                    break
        return stats


def simulate(
    kernel: KernelTrace,
    config: Optional[GPUConfig] = None,
    num_sms: Optional[int] = None,
    collect_timeline: bool = False,
    tracer: Optional["Tracer"] = None,
) -> SimStats:
    """One-shot convenience wrapper: build a GPU, run ``kernel``, return stats."""
    gpu = GPU(
        config=config,
        num_sms=num_sms,
        collect_timeline=collect_timeline,
        tracer=tracer,
    )
    return gpu.run(kernel)
