"""The Streaming Multiprocessor.

An SM hosts up to ``max_ctas_per_sm`` resident thread blocks whose warps
are statically assigned to sub-cores by the configured assignment policy.
The SM drives its sub-cores' per-cycle phases, owns the writeback event
heap (which doubles as the fast-forward horizon during memory stalls), and
enforces the CTA-granularity resource lifecycle: register-file space, warp
slots and shared memory are claimed when a CTA is admitted and released
only when its last warp exits.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from ..analysis.invariants import Sanitizer
from ..config import GPUConfig
from ..memory import MemorySubsystem
from ..trace import CTATrace, KernelTrace
from .subcore import SubCore
from .subcore_assignment import SubcoreAssignment, make_assignment
from .thread_block import ThreadBlock
from .warp import RUNNABLE_STATES, Warp, WarpState

if TYPE_CHECKING:  # pragma: no cover
    from ..obs import Tracer


class StreamingMultiprocessor:
    """One SM: sub-cores + shared memory path + CTA residency."""

    def __init__(
        self,
        sm_id: int,
        config: GPUConfig,
        memory: MemorySubsystem,
        assignment: Optional[SubcoreAssignment] = None,
        collect_timeline: bool = False,
        tracer: Optional["Tracer"] = None,
    ):
        self.sm_id = sm_id
        self.config = config
        self.memory = memory
        self.assignment = assignment if assignment is not None else make_assignment(config)
        if self.assignment.num_subcores != config.subcores_per_sm:
            raise ValueError("assignment policy sized for a different sub-core count")
        self.subcores = [SubCore(i, config, self) for i in range(config.subcores_per_sm)]

        self.resident_ctas: List[ThreadBlock] = []  # simcheck: persistent -- drains via _release_cta at retirement; a run only ends empty
        self.shared_mem_used = 0  # simcheck: persistent -- tracks CTA residency; returns to 0 as CTAs retire

        # Entries are (cycle, seq, warp, reg); ``reg is None`` marks a
        # migration-arrival event rather than a register writeback.
        self._wb_heap: List[Tuple[int, int, Warp, Optional[int]]] = []  # simcheck: persistent -- empty whenever no kernel is in flight (see begin_run)
        self._seq = itertools.count()
        self._warp_id_counter = 0

        #: Per-cycle invariant checks (GPUConfig.sanitize); read-only, so
        #: sanitized runs stay byte-identical to unsanitized ones.
        self.sanitizer: Optional[Sanitizer] = (
            Sanitizer(config) if config.sanitize else None
        )

        # -- observability (repro.obs) ----------------------------------------
        self.tracer = tracer
        if tracer is not None:
            self.memory.attach_tracer(tracer, sm_id)
            for sc in self.subcores:
                sc.tracer = tracer
                sc.arbitration.attach_tracer(tracer, sm_id, sc.subcore_id)
        #: Stall attribution accounts every scheduler issue slot of every
        #: *accounted* cycle.  ``_attr_cycles`` counts cycles this SM has
        #: attributed (stepped cycles + fast-forward gaps); the per-run
        #: remainder up to ``SimStats.cycles`` is SM-idle time, added as
        #: ``idle`` at stats collection.
        self.stall_attribution = config.stall_attribution
        #: Cached config flag: read once per stepped cycle.
        self._work_stealing = config.work_stealing
        self._attr_cycles = 0  # simcheck: persistent -- cumulative attributed-cycle count; snapshot/delta reported
        self._last_stepped: Optional[int] = None

        # statistics
        self.total_instructions = 0  # simcheck: persistent -- cumulative statistic; snapshot/delta reported
        self.ctas_completed = 0  # simcheck: persistent -- cumulative statistic; snapshot/delta reported
        self.migrations = 0  # simcheck: persistent -- cumulative statistic; snapshot/delta reported
        self.resources_freed = False  # simcheck: persistent -- edge-triggered flag consumed by the GPU cycle loop
        self.rf_read_timeline: Optional[List[Tuple[int, int]]] = (  # simcheck: persistent -- cumulative timeline; snapshot/delta reported
            [] if collect_timeline else None
        )
        self.warp_finish_cycles: List[int] = []  # simcheck: persistent -- cumulative record; snapshot/delta reported
        self.cta_latencies: List[int] = []  # simcheck: persistent -- cumulative record; snapshot/delta reported

    def begin_run(self) -> None:
        """Reset per-launch transient state so back-to-back ``GPU.run``
        calls behave exactly like fresh GPUs (statistics stay cumulative).

        Covers warp-id numbering (bank swizzles key on warp ids), the
        assignment policy's rotation counter, sub-core transients, and the
        SM's L1-side memory state.  The writeback heap is empty whenever no
        kernel is in flight (EXIT waits for scoreboard drain; migrations
        resolve before retirement), so it needs no clearing.
        """
        self._warp_id_counter = 0
        self.assignment.reset()
        self.memory.begin_run()
        for sc in self.subcores:
            sc.begin_run()

    # -- CTA admission --------------------------------------------------------

    def can_ever_fit(self, kernel: KernelTrace, cta: CTATrace) -> bool:
        """Whether an empty SM could host this CTA at all (sanity check)."""
        if cta.num_warps > self.config.max_warps_per_sm:
            return False
        if kernel.shared_mem_per_cta > self.config.shared_mem_per_sm:
            return False
        return kernel.regs_per_cta() <= self.config.registers_per_sm

    def try_allocate_cta(
        self, kernel: KernelTrace, cta: CTATrace, cta_id: int, now: int
    ) -> bool:
        """Admit one CTA if every resource check passes; assigns its warps."""
        cfg = self.config
        if len(self.resident_ctas) >= cfg.max_ctas_per_sm:
            return False
        if self.shared_mem_used + kernel.shared_mem_per_cta > cfg.shared_mem_per_sm:
            return False
        plan = self.assignment.plan(cta.num_warps)
        regs_per_warp = kernel.regs_per_warp()
        demand = Counter(plan)
        for sc_id, count in demand.items():
            sc = self.subcores[sc_id]
            if sc.free_slots < count:
                return False
            if sc.free_registers() < count * regs_per_warp:
                return False

        self.assignment.commit(cta.num_warps)
        tb = ThreadBlock(
            cta_id,
            cta,
            regs=regs_per_warp * cta.num_warps,
            shared_mem=kernel.shared_mem_per_cta,
            shared_conflict_degree=kernel.shared_conflict_degree,
            regs_per_warp=regs_per_warp,
        )
        tb.start_cycle = now
        self.shared_mem_used += kernel.shared_mem_per_cta
        base_warp_id = self._warp_id_counter
        self._warp_id_counter += cta.num_warps
        for i, sc_id in enumerate(plan):
            warp = Warp(
                warp_id=base_warp_id + i,
                cta=tb,
                trace=cta.warps[i],
                subcore_id=sc_id,
                age=0,  # assigned by the sub-core
            )
            self.subcores[sc_id].add_warp(warp, regs_per_warp)
            tb.add_warp(warp)
        self.resident_ctas.append(tb)
        if self.tracer is not None:
            self.tracer.cta_launch(now, self.sm_id, cta_id, cta.num_warps)
        return True

    def _release_cta(self, tb: ThreadBlock, now: int) -> None:
        regs_per_warp = tb.regs_per_warp
        for warp in tb.warps:
            self.subcores[warp.subcore_id].remove_warp(warp, regs_per_warp)
        self.shared_mem_used -= tb.shared_mem
        self.resident_ctas.remove(tb)
        tb.finish_cycle = now
        if tb.start_cycle is not None:
            self.cta_latencies.append(now - tb.start_cycle)
        self.ctas_completed += 1
        self.resources_freed = True
        if self.tracer is not None:
            latency = now - tb.start_cycle if tb.start_cycle is not None else 0
            self.tracer.cta_retire(now, self.sm_id, tb.cta_id, latency)

    # -- callbacks from sub-cores ------------------------------------------------

    def warp_at_barrier(self, warp: Warp) -> None:
        warp.cta.arrive_at_barrier(warp)

    def warp_exited(self, warp: Warp, now: int) -> None:
        warp.finish(now)
        self.warp_finish_cycles.append(now)
        warp.cta.note_warp_exit(warp)
        if warp.cta.finished:
            self._release_cta(warp.cta, now)

    def memory_access(self, warp: Warp, pc: int, now: int) -> int:
        """Completion cycle of ``warp``'s memory instruction at ``pc``."""
        return self.memory.access(warp.code, pc, now, warp.cta.shared_conflict_degree)

    # -- simulation --------------------------------------------------------------

    def begin_attribution_window(self, start: int) -> None:  # simcheck: reset-hook
        """Reset the fast-forward gap reference at the start of a run.

        Without the reset, the idle span between two ``GPU.run()`` calls
        would be attributed to the second run as a fast-forward gap.
        """
        self._last_stepped = start - 1

    def step(self, now: int) -> None:
        """Advance the SM one cycle."""
        if self.stall_attribution:
            # Attribute fast-forwarded cycles BEFORE draining writebacks:
            # during the gap the warps were in exactly the state they are
            # in now (blocked / at barrier / migrating), which is what the
            # taxonomy should record for those cycles.
            last = self._last_stepped
            if last is not None and now - last > 1:
                gap = now - last - 1
                for sc in self.subcores:
                    sc.attribute_gap(last + 1, gap)
                self._attr_cycles += gap
            self._attr_cycles += 1
            self._last_stepped = now
        heap = self._wb_heap
        while heap and heap[0][0] <= now:
            _, _, warp, reg = heapq.heappop(heap)
            if reg is None:
                # Migration arrival: the warp's register state has landed
                # on its new sub-core.
                warp.set_state(WarpState.READY)
                warp.refresh_state()
            else:
                warp.complete_write(reg)

        # Dispatch first (CUs completed in earlier cycles), then issue (new
        # CU allocations enqueue their reads), then collect — so an operand
        # can be granted in its allocation cycle but dispatch is always at
        # least one cycle after allocation.  Each phase call is guarded by
        # the condition its own early-return would test: on stall-heavy
        # workloads most sub-core phases are no-ops, and the guards keep
        # those off the call stack while recording the exact counters the
        # skipped call would have.
        grants = 0
        subcores = self.subcores
        for sc in subcores:
            if sc._busy_cus:
                sc.dispatch_ready_cus(now)
        for sc in subcores:
            if sc.ready:
                sc.issue(now)
            else:
                # Inlined empty-ready issue(): one stalled scheduler cycle.
                sc.issue_stall_no_ready += 1
                if sc.stall_cycles is not None:
                    sc._attribute_stall(sc._stall_reason(), sc._issue_width, now)
        for sc in subcores:
            # Collect: one grant round, reads accounted to the RF slice.
            # With no queued reads grant_cycle is a no-op (the delayed-RBA
            # history dedupes unchanged all-zero snapshots), so the call is
            # skipped outright.
            if sc.arbitration.pending:
                got = sc.arbitration.grant_cycle(now)
                if got:
                    sc.register_file.reads += got
                    grants += got

        if self._work_stealing:
            self._try_steal(now)

        if self.rf_read_timeline is not None and grants:
            self.rf_read_timeline.append((now, grants))

        if self.sanitizer is not None:
            self.sanitizer.check_sm(self, now)

    def _try_steal(self, now: int) -> None:  # simcheck: hot-ok -- work-stealing upper-bound study only; off on measured designs
        """Dynamic warp migration (Sec. VII's work-stealing design).

        A sub-core whose resident warps are all finished or parked at the
        CTA barrier steals the youngest runnable warp from the most loaded
        sub-core, paying ``migration_latency`` cycles of register-state
        transfer during which the warp cannot issue.
        """
        thieves = []
        donors = []
        for sc in self.subcores:
            runnable = sum(1 for w in sc.warps if w.state in RUNNABLE_STATES)
            if runnable == 0 and sc.free_slots > 0:
                thieves.append(sc)
            elif runnable >= 2:
                donors.append((runnable, sc))
        if not thieves or not donors:
            return
        donors.sort(key=lambda t: -t[0])
        for thief in thieves:
            if not donors or donors[0][0] < 2:
                break
            runnable, donor = donors[0]
            victims = [w for w in donor.warps if w.state in RUNNABLE_STATES]
            warp = max(victims, key=lambda w: w.age)  # youngest: least sunk work
            regs_per_warp = warp.cta.regs_per_warp
            if thief.free_registers() < regs_per_warp:
                continue
            donor.remove_warp(warp, regs_per_warp)
            warp.subcore_id = thief.subcore_id
            thief.add_warp(warp, regs_per_warp)
            warp.set_state(WarpState.MIGRATING)
            heapq.heappush(
                self._wb_heap,
                (now + self.config.migration_latency, next(self._seq), warp, None),
            )
            self.migrations += 1
            if self.tracer is not None:
                self.tracer.warp_migrate(
                    now,
                    self.sm_id,
                    thief.subcore_id,
                    warp.warp_id,
                    donor.subcore_id,
                )
            donors[0] = (runnable - 1, donor)
            donors.sort(key=lambda t: -t[0])

    def next_event(self, now: int) -> Optional[int]:
        """Earliest cycle this SM needs to step again, or None if idle.

        The per-SM event horizon: the minimum over each sub-core's local
        horizon (``now + 1`` while it can make progress on its own, the
        earliest execution-port release while collected instructions wait
        behind busy ports) and the next writeback event (the memory-stall
        fast-forward).  None with resident CTAs means deadlock — nothing
        will ever wake this SM again.
        """
        if not self.resident_ctas:
            return None
        horizon: Optional[int] = None
        if self._work_stealing:
            # _try_steal runs every stepped cycle and can migrate warps
            # while none is READY (donors may be BLOCKED), so only the
            # all-quiescent writeback fast-forward is safe to keep.
            for sc in self.subcores:
                if not sc.quiescent():
                    return now + 1
        else:
            for sc in self.subcores:
                event = sc.next_local_event(now)
                if event is not None:
                    if event <= now + 1:
                        return now + 1
                    if horizon is None or event < horizon:
                        horizon = event
        if self._wb_heap:
            wb = self._wb_heap[0][0]
            if wb <= now + 1:
                return now + 1
            if horizon is None or wb < horizon:
                horizon = wb
        return horizon

    def dormant(self) -> bool:
        """All sub-cores quiescent: only scheduled events can wake this SM.

        The classifier for fast-forward accounting: a jump over a window in
        which every active SM is dormant skips cycles the simulator never
        accounted per-cycle (the original writeback fast-forward); a jump
        while any active SM merely waits on execution ports skips cycles
        that used to be stepped, so their counters are reproduced in closed
        form via account_skipped_steps.
        """
        for sc in self.subcores:
            if not sc.quiescent():
                return False
        return True

    def account_skipped_steps(self, start: int, cycles: int) -> None:
        """Reproduce the counters of ``cycles`` stepped no-progress cycles.

        Called by the GPU cycle loop at fast-forward time for every active
        SM when the skipped window would previously have been stepped (some
        active SM non-dormant).  Warp states are static across the window,
        so per-sub-core accounting is exact; advancing ``_last_stepped``
        marks the window as stepped for the gap-attribution path.
        """
        for sc in self.subcores:
            sc.account_skipped_steps(start, cycles)
        if self.stall_attribution:
            self._attr_cycles += cycles
            if self._last_stepped is not None:
                self._last_stepped = start + cycles - 1

    # -- introspection -------------------------------------------------------------

    @property
    def idle(self) -> bool:
        return not self.resident_ctas

    def issue_counts(self) -> List[int]:
        """Instructions issued by each sub-core scheduler (Fig. 17 input)."""
        return [sc.instructions_issued for sc in self.subcores]

    def total_rf_reads(self) -> int:
        return sum(sc.register_file.reads for sc in self.subcores)

    def total_bank_conflict_cycles(self) -> int:
        return sum(sc.arbitration.conflict_cycles for sc in self.subcores)

    def occupancy(self) -> Dict[int, int]:
        return {sc.subcore_id: len(sc.warps) for sc in self.subcores}
