"""The sub-core: one scheduler domain of a partitioned SM.

Each sub-core owns a warp scheduler, a register-file slice with its
arbitration unit, a handful of collector units, and a set of execution
pipelines.  A fully-connected SM is modelled as a single sub-core whose
config pools every bank, CU, lane and issue slot.

Per-cycle sequence (driven by :class:`~repro.core.sm.StreamingMultiprocessor`):

1. **dispatch** — collector units whose operands were all collected in
   earlier cycles send their instruction to the matching execution pipeline
   (if its issue port is free) and are released;
2. **issue** — the warp scheduler picks ready warps and issues their next
   instruction into a free collector unit (or directly, for instructions
   with no register-file sources), enqueueing its bank read requests;
3. **collect** — the arbitration unit grants one read per bank, including
   requests enqueued this cycle.

An operand can thus be granted in its allocation cycle, but dispatch is
always at least one cycle after allocation (the collect→dispatch pipeline
boundary), so a conflict-free instruction occupies its CU for one cycle.
"""

from __future__ import annotations

from heapq import heappush
from typing import Collection, Dict, List, Optional, Set, TYPE_CHECKING

from ..config import GPUConfig
from ..isa import FuncUnit
from ..obs.stall import (
    BANK_CONFLICT,
    BARRIER,
    DRAIN,
    IDLE,
    ISSUED,
    NO_FREE_CU,
    NO_READY_WARP,
    SCOREBOARD,
    empty_buckets,
)
from ..trace.compiled import F_BARRIER, F_EXIT, F_MEMORY
from .arbitration import ArbitrationUnit
from .collector_unit import CollectorUnit
from .execution import ExecutionUnits, Pipeline
from .register_file import RegisterFile
from .warp import Warp, WarpState
from .warp_scheduler import WarpScheduler, make_scheduler

if TYPE_CHECKING:  # pragma: no cover
    from ..obs import Tracer
    from .sm import StreamingMultiprocessor


class SubCore:
    """One sub-core of an SM."""

    def __init__(self, subcore_id: int, config: GPUConfig, sm: "StreamingMultiprocessor"):
        self.subcore_id = subcore_id
        self.config = config
        self.sm = sm
        self.register_file = RegisterFile(
            config.rf_banks_per_subcore, config.bank_mapping
        )
        self.arbitration = ArbitrationUnit(
            config.rf_banks_per_subcore,
            read_ports=config.bank_read_ports,
            score_latency=config.rba_score_latency,
        )
        self.scheduler: WarpScheduler = make_scheduler(config, self.arbitration)
        self.collector_units = [
            CollectorUnit(i) for i in range(config.collector_units_per_subcore)
        ]
        self.execution = ExecutionUnits(config)
        #: Pipelines as a flat list indexed by the compiled code's unit
        #: ids (FuncUnit definition order — see repro.trace.compiled
        #: UNIT_INDEX), so the issue path resolves an instruction's
        #: pipeline with one list index instead of an enum-keyed dict get.
        self._pipes: List[Pipeline] = [
            self.execution.pipelines[unit] for unit in FuncUnit
        ]

        self.max_warps = config.max_warps_per_subcore
        self._issue_width = config.issue_width
        #: Cached scheduler-class flag (read once per issue cycle).
        self._steals_banks = self.scheduler.steals_banks
        self.max_registers = config.registers_per_sm // config.subcores_per_sm
        self.warps: List[Warp] = []  # simcheck: persistent -- drains via remove_warp at CTA retirement; a run only ends empty
        #: Warps currently in the READY state (maintained by Warp.set_state).
        #: A dict-as-set: iteration order is insertion order, never hash
        #: order, so scheduler tie-breaks are bit-deterministic across
        #: processes (a plain set would order candidates by object hash).
        self.ready: Dict[Warp, None] = {}  # simcheck: persistent -- mirrors warp residency; drains with self.warps
        self.registers_used = 0  # simcheck: persistent -- tracks warp residency; returns to 0 as CTAs retire
        self._age_counter = 0
        self._busy_cus = 0  # simcheck: persistent -- tracks in-flight CU occupancy; drains before a run ends

        # statistics
        self.instructions_issued = 0  # simcheck: persistent -- cumulative statistic; snapshot/delta reported
        self.issue_stall_no_cu = 0  # simcheck: persistent -- cumulative statistic; snapshot/delta reported
        self.issue_stall_no_ready = 0  # simcheck: persistent -- cumulative statistic; snapshot/delta reported
        self.steals = 0  # simcheck: persistent -- cumulative statistic; snapshot/delta reported

        # observability (repro.obs).  Both default to "off": the tracer is
        # attached by the SM when one is passed to the GPU, and the stall
        # buckets only exist under config.stall_attribution — when off,
        # every hook reduces to one None-check and collected stats are
        # byte-identical to pre-observability behaviour.
        self.tracer: Optional["Tracer"] = None  # simcheck: persistent -- wiring installed once per process, survives runs
        self.stall_cycles: Optional[Dict[str, int]] = (  # simcheck: persistent -- cumulative stall buckets; snapshot/delta reported
            empty_buckets() if config.stall_attribution else None
        )

    # -- occupancy ---------------------------------------------------------

    @property
    def free_slots(self) -> int:
        return self.max_warps - len(self.warps)

    def free_registers(self) -> int:
        return self.max_registers - self.registers_used

    def add_warp(self, warp: Warp, regs_per_warp: int) -> None:
        if self.free_slots <= 0:
            raise RuntimeError(f"sub-core {self.subcore_id} warp slots exhausted")
        warp.age = self._age_counter
        self._age_counter += 1
        self.warps.append(warp)
        warp.ready_pool = self.ready
        warp.set_bank_view(self.register_file.mapper, self.register_file.num_banks)
        if warp.state is WarpState.READY:
            self.ready[warp] = None
        self.registers_used += regs_per_warp

    def begin_run(self) -> None:
        """Reset per-launch transient state at the start of a kernel run.

        Warp ages restart at zero (they are the GTO/LRR/two-level tie-break
        and group key, so a second launch must age its warps exactly like a
        fresh GPU), execution ports booked past the previous kernel's end
        are freed, and scheduler/arbitration per-launch state clears.
        Cumulative statistics are untouched.
        """
        self._age_counter = 0
        self.execution.begin_run()
        self.scheduler.begin_run()
        self.arbitration.begin_run()

    def remove_warp(self, warp: Warp, regs_per_warp: int) -> None:
        self.warps.remove(warp)
        self.ready.pop(warp, None)
        warp.ready_pool = None
        self.registers_used -= regs_per_warp
        self.scheduler.note_warp_removed(warp)

    # -- per-cycle phases ------------------------------------------------------

    def dispatch_ready_cus(self, now: int) -> None:
        """Phase 1: send fully-collected instructions to execution.

        A CU whose operands are all collected dispatches through
        :meth:`_execute_on` once a port of its pipeline is free, and is
        released here; the scan stops after the last occupied CU
        (``remaining``).
        """
        remaining = self._busy_cus
        if not remaining:
            return
        for cu in self.collector_units:
            warp = cu.warp
            if warp is None:
                continue
            if not cu.pending_operands:
                pipe = cu.pipe
                assert pipe is not None
                ports = pipe.port_free
                if (ports[0] if pipe.single else min(ports)) <= now:
                    pc = cu.pc
                    if self.tracer is not None:
                        start, dur = cu.occupancy_span(now)
                        self.tracer.cu_span(
                            start, self.sm.sm_id, self.subcore_id, cu.cu_id,
                            warp.warp_id, warp.code.opcode_name(pc), dur,
                        )
                    self._execute_on(pipe, warp, pc, now)
                    # Release the CU (pending_operands is already 0).
                    cu.warp = None
                    cu.pc = -1
                    cu.pipe = None
                    cu.allocated_cycle = -1
                    self._busy_cus -= 1
            remaining -= 1
            if not remaining:
                return

    def issue(self, now: int) -> int:
        """Phase 2: warp scheduler issue; returns instructions issued."""
        attr = self.stall_cycles
        ready = self.ready
        if not ready:
            self.issue_stall_no_ready += 1
            if attr is not None:
                self._attribute_stall(self._stall_reason(), self._issue_width, now)
            return 0
        if self._issue_width == 1 and not self._steals_banks:
            # Single-slot fast path (every partitioned design): one select,
            # one issue attempt, the same stall accounting the general loop
            # below produces for width 1.
            warp = self.scheduler.select(ready, now)
            if warp is not None and self._issue_warp(warp, now):
                if attr is not None:
                    attr[ISSUED] += 1
                return 1
            if warp is None:
                if attr is not None:
                    self._attribute_stall(NO_READY_WARP, 1, now)
            else:
                self.issue_stall_no_cu += 1
                if attr is not None:
                    self._attribute_stall(self._structural_stall_reason(now), 1, now)
            return 0
        issued = 0
        # Lazily allocated: membership-only, never iterated.  With
        # issue_width == 1 (every partitioned design) no set is ever built.
        issued_warps: Optional[Set[Warp]] = None
        slots_issued = 0
        stall_reason: Optional[str] = None
        ready = self.ready
        scheduler = self.scheduler
        for _ in range(self._issue_width):
            if issued_warps:
                candidates: Collection[Warp] = [  # simcheck: hot-ok -- only reached with issue_width > 1 (no partitioned design)
                    w for w in ready if w not in issued_warps
                ]
                if not candidates:
                    self.issue_stall_no_ready += 1
                    # Ready warps exist but each already issued this cycle.
                    stall_reason = NO_READY_WARP
                    break
            else:
                # First slot: hand the scheduler the live ready pool (an
                # insertion-ordered dict-as-set) — select() only reads it,
                # and copying it every cycle dominated the issue path.
                candidates = ready
            warp = scheduler.select(candidates, now)
            if warp is None:
                stall_reason = NO_READY_WARP
                break
            if not self._issue_warp(warp, now):
                # Selected warp could not issue (no CU / port busy): stall
                # this slot, as the hardware scheduler would.
                self.issue_stall_no_cu += 1
                if attr is not None:
                    stall_reason = self._structural_stall_reason(now)
                break
            if issued_warps is None:
                issued_warps = set()  # simcheck: hot-ok -- lazily built once per multi-issue cycle; issue_width == 1 never allocates
            issued_warps.add(warp)
            issued += 1
            slots_issued += 1
        if attr is not None:
            attr[ISSUED] += slots_issued
            leftover = self._issue_width - slots_issued
            if leftover:
                self._attribute_stall(
                    stall_reason if stall_reason is not None else self._stall_reason(),
                    leftover,
                    now,
                )

        # Bank-stealing pass: fill a still-free CU with a warp whose
        # operands sit in idle banks (Jing et al. [36]).  Candidates have
        # register sources, so _issue_warp takes the free CU.
        if self._steals_banks and self._busy_cus < len(self.collector_units):
            skip: Collection[Warp] = issued_warps or ()
            candidates = [  # simcheck: hot-ok -- bank-stealing policy only; the pass inherently materializes its candidate pool
                w
                for w in self.ready
                if w not in skip and w.code.num_src[w.pc]
            ]
            victim = (
                self.scheduler.steal_candidate(candidates, now)
                if candidates
                else None
            )
            if victim is not None and self._issue_warp(victim, now):
                self.steals += 1
                issued += 1
        return issued

    # -- stall attribution (repro.obs) ---------------------------------------

    def _attribute_stall(self, reason: str, slots: int, now: int) -> None:
        """Charge ``slots`` un-issued scheduler slots of cycle ``now``."""
        assert self.stall_cycles is not None
        self.stall_cycles[reason] += slots
        if self.tracer is not None:
            self.tracer.warp_stall(now, self.sm.sm_id, self.subcore_id, reason, slots)

    def _stall_reason(self) -> str:
        """Why no ready warp could fill an issue slot, top-down.

        Priority order: a scoreboard hazard outranks a barrier wait (the
        hazard is what blocks progress), which outranks in-transit or
        already-issued warps, which outranks the end-of-CTA drain; a
        sub-core with no resident warps at all is idle.

        One flat scan, no set build: this runs on every un-issued slot of
        every attributed cycle, and the highest-priority state
        short-circuits the walk.
        """
        if not self.warps:
            return IDLE
        saw_barrier = False
        saw_ready = False
        for w in self.warps:
            state = w.state
            if state is WarpState.BLOCKED:
                return SCOREBOARD
            if state is WarpState.AT_BARRIER:
                saw_barrier = True
            elif state is WarpState.MIGRATING or state is WarpState.READY:
                saw_ready = True
        if saw_barrier:
            return BARRIER
        if saw_ready:
            return NO_READY_WARP
        return DRAIN

    def _structural_stall_reason(self, now: int) -> str:
        """Why a *selected* warp could not issue: collector-side analysis.

        If some occupied collector unit is still waiting on bank reads it
        requested in an earlier cycle, the slot was lost to register-bank
        arbitration backlog; otherwise the structural limit itself (no
        free CU, or a busy execution port) is to blame.
        """
        for cu in self.collector_units:
            if (
                cu.warp is not None
                and cu.pending_operands
                and cu.allocated_cycle < now
            ):
                return BANK_CONFLICT
        return NO_FREE_CU

    def attribute_gap(self, gap_start: int, cycles: int) -> None:
        """Attribute ``cycles`` fast-forwarded (un-stepped) cycles.

        Called by the SM before the writeback drain of the step that ends
        a fast-forward jump, so warp states still describe what the
        sub-core was waiting on during the gap (typically ``scoreboard``:
        every warp blocked on an outstanding memory writeback).
        """
        if self.stall_cycles is None or cycles <= 0:
            return
        reason = self._stall_reason()
        self.stall_cycles[reason] += cycles * self.config.issue_width
        if self.tracer is not None:
            self.tracer.warp_stall(
                gap_start, self.sm.sm_id, self.subcore_id, reason,
                cycles * self.config.issue_width, dur=cycles,
            )

    # -- issue helpers ------------------------------------------------------------

    def _issue_warp(self, warp: Warp, now: int) -> bool:
        """Issue ``warp``'s next instruction; False if it cannot issue now.

        An instruction with register sources takes the first free CU and
        queues one read per source on its bank (``Warp._row``); one
        without dispatches directly if its pipeline has a free port.
        """
        code = warp.code
        pc = warp.pc
        num_src = code.num_src[pc]
        if num_src:
            for cu in self.collector_units:
                if cu.warp is None:
                    break
            else:
                return False
            cu.warp = warp
            cu.pc = pc
            cu.pipe = self._pipes[code.unit_ids[pc]]
            cu.pending_operands = num_src
            cu.allocated_cycle = now
            self._busy_cus += 1
            arbitration = self.arbitration
            queues = arbitration.queues
            for bank in warp._row[pc]:
                queues[bank].append(cu)
            arbitration.pending += num_src
        else:
            # Direct path: no operands to collect.
            pipe = self._pipes[code.unit_ids[pc]]
            ports = pipe.port_free
            if (ports[0] if pipe.single else min(ports)) > now:
                return False
            self._execute_on(pipe, warp, pc, now)
        # Issued.  Flags and selection info are read before note_issue
        # advances pc and last_issued moves.
        tracer = self.tracer
        flags = code.flags[pc]
        if tracer is not None:
            info = self.scheduler.selection_info(warp)
            tracer.warp_issue(
                now, self.sm.sm_id, self.subcore_id, warp.warp_id,
                code.opcode_name(pc), pc, info["policy"], info["greedy"],
            )
        warp.note_issue()
        # The sub-core owns the scheduler's last-issued pointer: policies
        # read it in select(), nothing else writes it.
        self.scheduler.last_issued = warp
        self.instructions_issued += 1
        self.sm.total_instructions += 1
        if flags:
            if flags & F_BARRIER:
                if tracer is not None:
                    tracer.warp_barrier(
                        now, self.sm.sm_id, self.subcore_id, warp.warp_id
                    )
                self.sm.warp_at_barrier(warp)
            elif flags & F_EXIT:
                if tracer is not None:
                    tracer.warp_exit(
                        now, self.sm.sm_id, self.subcore_id, warp.warp_id
                    )
                self.sm.warp_exited(warp, now)
        return True

    def _execute_on(self, pipe: Pipeline, warp: Warp, pc: int, now: int) -> None:
        """The dispatch tail: start ``warp``'s instruction at ``pc`` on ``pipe``.

        Books the freest port (the caller checked one is free at ``now``)
        for the instruction's initiation interval — its own or the
        pipeline's lane-width factor, whichever is longer — resolves the
        completion cycle (fixed latency, or the memory subsystem's answer)
        and pushes the destination's writeback event on the SM's heap.
        """
        code = warp.code
        interval = code.intervals[pc]
        if pipe.lane_interval > interval:
            interval = pipe.lane_interval
        ports = pipe.port_free
        if pipe.single:
            ports[0] = now + interval
        else:
            ports[min(range(len(ports)), key=ports.__getitem__)] = now + interval
        pstats = pipe.stats
        pstats.issued += 1
        pstats.busy_cycles += interval
        t_done = now + interval + code.latencies[pc]
        sm = self.sm
        if code.flags[pc] & F_MEMORY:
            t_done = sm.memory_access(warp, pc, t_done)
        dst = code.dst_regs[pc]
        if dst is not None:
            self.register_file.writes += 1
            heappush(sm._wb_heap, (t_done, next(sm._seq), warp, dst))

    # -- sanitizer hook -------------------------------------------------------------

    def validate(self) -> List[dict]:
        """Per-cycle occupancy/accounting invariants of this sub-core.

        Consumed by :class:`repro.analysis.Sanitizer`; returns structured
        error dicts (empty when consistent).  Checks are read-only so a
        sanitized run stays byte-identical to an unsanitized one.
        """
        errors: List[dict] = []
        if not 0 <= self.registers_used <= self.max_registers:
            errors.append(
                {
                    "invariant": "rf-capacity",
                    "message": (
                        "register charge outside bank capacity (an alloc "
                        "overran or a free over-released)"
                    ),
                    "counter": "registers_used",
                    "expected": f"0..{self.max_registers}",
                    "actual": self.registers_used,
                }
            )
        if len(self.warps) > self.max_warps:
            errors.append(
                {
                    "invariant": "warp-slots",
                    "message": "more resident warps than slots",
                    "counter": "warps",
                    "expected": self.max_warps,
                    "actual": len(self.warps),
                }
            )

        busy = sum(1 for cu in self.collector_units if not cu.free)
        if busy != self._busy_cus:
            errors.append(
                {
                    "invariant": "cu-occupancy",
                    "message": (
                        "busy-CU cache diverged from the collector-unit "
                        "array (an allocate/release went unaccounted)"
                    ),
                    "counter": "busy_cus",
                    "expected": busy,
                    "actual": self._busy_cus,
                }
            )
        for cu in self.collector_units:
            errors.extend(cu.validate())

        errors.extend(self.arbitration.validate())
        errors.extend(self.register_file.validate())

        # Every queued bank read belongs to exactly one pending CU operand.
        cu_pending = sum(cu.pending_operands for cu in self.collector_units)
        queued = self.arbitration.queued_requests()
        if queued != cu_pending:
            errors.append(
                {
                    "invariant": "arbitration-conservation",
                    "message": (
                        "queued bank reads do not match pending collector "
                        "operands"
                    ),
                    "counter": "arbitration.pending",
                    "expected": cu_pending,
                    "actual": queued,
                }
            )

        # Ready pool and warp list must agree on READY membership.
        for w in self.ready:
            if w not in self.warps or w.state is not WarpState.READY:
                errors.append(
                    {
                        "invariant": "ready-pool",
                        "message": (
                            f"warp {w.warp_id} in the ready pool but "
                            f"{'not resident' if w not in self.warps else 'not READY'}"
                        ),
                        "counter": "ready",
                        "expected": "resident READY warps only",
                        "actual": w.state.value,
                    }
                )
        for w in self.warps:
            if w.state is WarpState.READY and w not in self.ready:
                errors.append(
                    {
                        "invariant": "ready-pool",
                        "message": f"READY warp {w.warp_id} missing from the ready pool",
                        "counter": "ready",
                        "expected": "all READY warps",
                        "actual": "missing",
                    }
                )

        if self.stall_cycles is not None and any(
            v < 0 for v in self.stall_cycles.values()
        ):
            errors.append(
                {
                    "invariant": "stall-attribution",
                    "message": "negative stall-attribution bucket",
                    "counter": "stall_cycles",
                    "expected": ">= 0 per bucket",
                    "actual": dict(self.stall_cycles),
                }
            )

        errors.extend(self.scheduler.validate(self.warps))
        return errors

    # -- fast-forward support -------------------------------------------------------

    def quiescent(self) -> bool:
        """True when the sub-core cannot make progress next cycle on its own.

        Progress requires a ready warp, a pending arbitration request, or an
        occupied collector unit.  (Busy execution ports with nothing staged
        behind them need no per-cycle attention.)
        """
        return not (self.arbitration.pending or self._busy_cus or self.ready)

    def next_local_event(self, now: int) -> Optional[int]:
        """Earliest cycle this sub-core needs to be stepped, or None.

        ``now + 1`` whenever a ready warp or a queued bank read can make
        progress next cycle.  A sub-core whose only live work is collected
        instructions parked behind busy execution ports needs no attention
        until the earliest port frees — the shallow half of the SM's event
        horizon.  None means quiescent (writeback events notwithstanding).
        """
        if self.ready or self.arbitration.pending:
            return now + 1
        if self._busy_cus:
            horizon: Optional[int] = None
            for cu in self.collector_units:
                if cu.warp is None:
                    continue
                if cu.pending_operands:
                    # A pending operand without a queued bank read would be
                    # an invariant break; never fast-forward past it.
                    return now + 1
                pipe = cu.pipe
                assert pipe is not None
                free = min(pipe.port_free)
                if free <= now + 1:
                    return now + 1
                if horizon is None or free < horizon:
                    horizon = free
            return horizon if horizon is not None else now + 1
        return None

    def account_skipped_steps(self, start: int, cycles: int) -> None:
        """Record counters exactly as ``cycles`` stepped cycles would have.

        Called by the SM when the cycle loop fast-forwards over a window in
        which this sub-core would have been stepped with an empty ready
        pool and nothing to dispatch or collect (every port-wait skip).
        Each such stepped cycle records one no-ready issue stall and, under
        attribution, charges the current stall reason for every issue slot
        — warp states are static across the window, so the closed form is
        byte-identical to stepping.
        """
        self.issue_stall_no_ready += cycles
        attr = self.stall_cycles
        if attr is not None:
            reason = self._stall_reason()
            attr[reason] += cycles * self.config.issue_width
            if self.tracer is not None:
                self.tracer.warp_stall(
                    start, self.sm.sm_id, self.subcore_id, reason,
                    cycles * self.config.issue_width, dur=cycles,
                )
