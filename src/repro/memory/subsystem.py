"""Per-SM memory subsystem: coalescer → L1 → L2 → DRAM, plus shared memory.

Each SM owns an L1 slice and a shared-memory scratchpad; the L2 and DRAM are
chip-level and shared by all SMs (pass the same instances to every
subsystem).  The subsystem converts a warp memory instruction into a single
completion cycle, which the LDST execution unit uses as the writeback time.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from ..config import GPUConfig, MemoryConfig
from ..trace.warp_trace import GLOBAL_MEMORY, MEM_CLASS, SHARED_MEMORY
from .cache import Cache
from .coalescer import Coalescer
from .dram import DRAM
from .request import AccessResult
from .shared_memory import SharedMemory

if TYPE_CHECKING:  # pragma: no cover
    from ..obs import Tracer
    from ..trace.compiled import CompiledWarp
    from ..trace.warp_trace import MemRow


def build_l2(mem: MemoryConfig) -> Cache:
    """The chip-level L2; share one instance across all SM subsystems."""
    return Cache(
        size_bytes=mem.l2_size_bytes,
        line_bytes=mem.l2_line_bytes,
        ways=mem.l2_ways,
        hit_latency=mem.l2_hit_latency,
        mshrs=mem.l2_mshrs,
        name="L2",
    )


def build_dram(mem: MemoryConfig) -> DRAM:
    return DRAM(
        latency=mem.dram_latency,
        bytes_per_cycle=mem.dram_bytes_per_cycle,
        line_bytes=mem.l2_line_bytes,
        num_channels=mem.dram_channels,
    )


class MemorySubsystem:
    """The memory path attached to one SM."""

    def __init__(
        self,
        config: GPUConfig,
        l2: Optional[Cache] = None,
        dram: Optional[DRAM] = None,
    ) -> None:
        mem = config.memory
        self.config = config
        self.coalescer = Coalescer(mem.l1_line_bytes)
        self.l1 = Cache(
            size_bytes=mem.l1_size_bytes,
            line_bytes=mem.l1_line_bytes,
            ways=mem.l1_ways,
            hit_latency=mem.l1_hit_latency,
            mshrs=mem.l1_mshrs,
            name="L1",
        )
        self.l2 = l2 if l2 is not None else build_l2(mem)  # simcheck: persistent -- chip-level shared instance; GPU._run resets it once per launch
        self.dram = dram if dram is not None else build_dram(mem)  # simcheck: persistent -- chip-level shared instance; GPU._run resets it once per launch
        self.shared = SharedMemory(mem.shared_mem_banks)
        #: L1←L2 ingest throughput: line transactions accepted per cycle.
        self._l1_port_free = 0
        # event tracing (repro.obs); attached by the owning SM when active
        self.tracer: Optional["Tracer"] = None  # simcheck: persistent -- wiring installed once per process, survives runs
        self._sm_id = -1  # simcheck: persistent -- wiring installed once per process, survives runs

    def attach_tracer(self, tracer: "Tracer", sm_id: int) -> None:
        """Attach the event tracer; accesses emit ``mem`` span events."""
        self.tracer = tracer
        self._sm_id = sm_id

    def begin_run(self) -> None:
        """Reset per-launch transient state (the L1 side of the SM).

        The shared L2/DRAM are reset once per launch by the GPU, not per
        subsystem — several SMs share those instances.
        """
        self._l1_port_free = 0
        self.l1.begin_run()

    # -- global memory ---------------------------------------------------------

    def access_global(self, mem: "MemRow", now: int) -> AccessResult:
        """Send one warp's coalesced global transactions into the hierarchy."""
        requests = self.coalescer.expand(mem)
        l1_hits = l1_misses = l2_hits = l2_misses = 0
        completion = now
        for i, req in enumerate(requests):
            # One L1 tag port: back-to-back transactions of the same warp
            # instruction serialize one per cycle.
            t_issue = max(now + i, self._l1_port_free)
            self._l1_port_free = t_issue + 1
            hit, inflight = self.l1.probe(req.line_address, t_issue)
            if hit:
                self.l1.record_hit()
                l1_hits += 1
                t_done = t_issue + self.l1.hit_latency
            elif inflight is not None:
                self.l1.record_merge()
                l1_misses += 1
                t_done = max(inflight, t_issue + self.l1.hit_latency)
            else:
                l1_misses += 1
                t_done, was_l2_hit = self._access_l2(req.line_address, t_issue)
                if was_l2_hit:
                    l2_hits += 1
                else:
                    l2_misses += 1
                self.l1.allocate_miss(req.line_address, t_done)
            completion = max(completion, t_done)
        return AccessResult(  # simcheck: hot-ok -- one result record per warp memory instruction, not per cycle
            completion_cycle=completion,
            l1_hits=l1_hits,
            l1_misses=l1_misses,
            l2_hits=l2_hits,
            l2_misses=l2_misses,
        )

    def _access_l2(self, line_address: int, now: int) -> tuple[int, bool]:
        l2 = self.l2
        t_at_l2 = now + self.l1.hit_latency  # L1 miss detection + NoC hop
        hit, inflight = l2.probe(line_address, t_at_l2)
        if hit:
            l2.record_hit()
            return t_at_l2 + l2.hit_latency, True
        if inflight is not None:
            l2.record_merge()
            return max(inflight, t_at_l2 + l2.hit_latency), False
        t_done = self.dram.access(t_at_l2, line_address) + l2.hit_latency
        l2.allocate_miss(line_address, t_done)
        return t_done, False

    # -- shared memory -----------------------------------------------------------

    def access_shared(self, now: int, conflict_degree: int = 1) -> int:
        return self.shared.access(now, conflict_degree)

    # -- instruction-level entry point --------------------------------------------

    def access(
        self, code: "CompiledWarp", pc: int, now: int, shared_conflict_degree: int = 1
    ) -> int:
        """Completion cycle for the data of the memory instruction at ``pc``."""
        mem_class = MEM_CLASS[code.ops[pc]]
        if mem_class == GLOBAL_MEMORY:
            result = self.access_global(code.mem[pc], now)
            done = result.completion_cycle
            if self.tracer is not None:
                self.tracer.mem_access(
                    now,
                    self._sm_id,
                    "global",
                    max(1, done - now),
                    l1_hits=result.l1_hits,
                    l1_misses=result.l1_misses,
                )
            return done
        if mem_class == SHARED_MEMORY:
            done = self.access_shared(now, shared_conflict_degree)
            if self.tracer is not None:
                self.tracer.mem_access(now, self._sm_id, "shared", max(1, done - now))
            return done
        raise ValueError(f"{code.opcode_name(pc)} is not a memory instruction")
