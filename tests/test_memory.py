"""Tests for the memory hierarchy: cache, MSHRs, DRAM, shared memory,
coalescer and the composed subsystem."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import volta_v100
from repro.isa import Instruction, MemRef, Opcode
from repro.memory import (
    DRAM,
    Cache,
    Coalescer,
    MemorySubsystem,
    SharedMemory,
    build_dram,
    build_l2,
)
from repro.trace import WarpTrace, compile_warp_trace


def mem_row(*args, **kwargs):
    """A memory reference as traces store it: ``MemRef``'s fields, in order."""
    return dataclasses.astuple(MemRef(*args, **kwargs))


def compiled(inst):
    """The compiled code of a trace holding ``inst`` at position 0."""
    return compile_warp_trace(WarpTrace.from_instructions([inst]))


def small_cache(**kw):
    defaults = dict(
        size_bytes=4 * 128 * 2,  # 2 sets x 4 ways x 128B lines
        line_bytes=128,
        ways=4,
        hit_latency=10,
        mshrs=8,
    )
    defaults.update(kw)
    return Cache(**defaults)


class TestCache:
    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            Cache(size_bytes=100, line_bytes=128, ways=4, hit_latency=1, mshrs=4)

    def test_miss_then_hit(self):
        c = small_cache()
        hit, inflight = c.probe(0, now=0)
        assert not hit and inflight is None
        c.allocate_miss(0, fill_cycle=50)
        # still in flight at t=10
        hit, inflight = c.probe(0, now=10)
        assert not hit and inflight == 50
        # after the fill completes the line is resident
        hit, inflight = c.probe(0, now=50)
        assert hit

    def test_mshr_merge_reporting(self):
        c = small_cache()
        c.allocate_miss(7, fill_cycle=100)
        hit, inflight = c.probe(7, now=1)
        assert inflight == 100
        c.record_merge()
        assert c.stats.mshr_merges == 1

    def test_lru_eviction(self):
        c = small_cache()
        # Fill one set (same set index = line % 2): lines 0,2,4,6 map to set 0.
        for line in (0, 2, 4, 6):
            c.install(line)
        c.probe(0, now=0)        # touch 0 -> MRU
        c.install(8)             # evicts LRU (2)
        assert c.contains(0)
        assert not c.contains(2)
        assert c.stats.evictions == 1

    def test_install_idempotent(self):
        c = small_cache()
        c.install(3)
        c.install(3)
        assert c.contains(3)
        assert c.stats.evictions == 0

    def test_mshrs_free_accounting(self):
        c = small_cache(mshrs=2)
        assert c.mshrs_free(0) == 2
        c.allocate_miss(1, 10)
        c.allocate_miss(3, 20)
        assert c.mshrs_free(5) == 0
        assert c.mshrs_free(10) == 1
        assert c.mshrs_free(20) == 2

    def test_flush(self):
        c = small_cache()
        c.install(1)
        c.allocate_miss(3, 10)
        c.flush()
        assert not c.contains(1)
        hit, inflight = c.probe(3, now=0)
        assert not hit and inflight is None

    def test_hit_rate(self):
        c = small_cache()
        c.record_hit()
        c.allocate_miss(1, 10)
        assert c.stats.accesses == 2
        assert c.stats.hit_rate == 0.5


class TestDRAM:
    def test_latency_plus_service(self):
        d = DRAM(latency=100, bytes_per_cycle=64, line_bytes=128)
        assert d.access(0) == 102  # 2 service + 100 latency

    def test_bandwidth_serialization(self):
        d = DRAM(latency=100, bytes_per_cycle=64, line_bytes=128)
        first = d.access(0)
        second = d.access(0)
        assert second == first + 2  # channel busy back-to-back

    def test_idle_channel_resets(self):
        d = DRAM(latency=10, bytes_per_cycle=128, line_bytes=128)
        d.access(0)
        assert d.access(1000) == 1011

    def test_validation(self):
        with pytest.raises(ValueError):
            DRAM(latency=-1, bytes_per_cycle=64, line_bytes=128)
        with pytest.raises(ValueError):
            DRAM(latency=1, bytes_per_cycle=0, line_bytes=128)


class TestSharedMemory:
    def test_conflict_free_latency(self):
        s = SharedMemory(num_banks=32, latency=24)
        assert s.access(10) == 34

    def test_conflict_serialization(self):
        s = SharedMemory(num_banks=32, latency=24)
        assert s.access(0, conflict_degree=4) == 27
        assert s.stats.conflict_cycles == 3

    def test_degree_clamped_to_banks(self):
        s = SharedMemory(num_banks=2, latency=0)
        assert s.access(0, conflict_degree=32) == 1

    def test_degree_validation(self):
        s = SharedMemory(num_banks=32)
        with pytest.raises(ValueError):
            s.access(0, conflict_degree=0)


class TestCoalescer:
    def test_expansion(self):
        co = Coalescer(128)
        reqs = co.expand(mem_row(base_address=256, num_lines=3))
        assert [r.line_address for r in reqs] == [2, 3, 4]

    def test_store_flag_propagates(self):
        co = Coalescer(128)
        reqs = co.expand(mem_row(0, num_lines=2, is_store=True))
        assert all(r.is_store for r in reqs)

    def test_line_bytes_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            Coalescer(100)


class TestMemorySubsystem:
    def make(self):
        return MemorySubsystem(volta_v100())

    def test_cold_miss_goes_to_dram(self):
        ms = self.make()
        r = ms.access_global(mem_row(0, num_lines=1), now=0)
        assert r.l1_misses == 1 and r.l2_misses == 1
        assert r.completion_cycle > ms.config.memory.dram_latency

    def test_rereference_hits_l1(self):
        ms = self.make()
        first = ms.access_global(mem_row(0, num_lines=1), now=0)
        r = ms.access_global(mem_row(0, num_lines=1), now=first.completion_cycle + 1)
        assert r.l1_hits == 1 and r.l1_misses == 0
        assert r.completion_cycle <= first.completion_cycle + 1 + 2 * ms.l1.hit_latency

    def test_inflight_merge_is_faster_than_new_miss(self):
        ms = self.make()
        first = ms.access_global(mem_row(0, num_lines=1), now=0)
        merged = ms.access_global(mem_row(0, num_lines=1), now=1)
        assert merged.completion_cycle <= first.completion_cycle + ms.l1.hit_latency
        assert ms.l1.stats.mshr_merges == 1

    def test_multi_line_serializes_on_l1_port(self):
        ms = self.make()
        r1 = ms.access_global(mem_row(0, num_lines=1), now=0)
        ms2 = self.make()
        r8 = ms2.access_global(mem_row(0, num_lines=8), now=0)
        assert r8.completion_cycle > r1.completion_cycle

    def test_l2_shared_between_sms(self):
        cfg = volta_v100()
        l2, dram = build_l2(cfg.memory), build_dram(cfg.memory)
        a = MemorySubsystem(cfg, l2=l2, dram=dram)
        b = MemorySubsystem(cfg, l2=l2, dram=dram)
        ra = a.access_global(mem_row(0, num_lines=1), now=0)
        # SM b misses its own L1 but hits the shared L2 once the line landed
        rb = b.access_global(mem_row(0, num_lines=1), now=ra.completion_cycle + 1)
        assert rb.l2_hits == 1

    def test_shared_access_uses_conflict_degree(self):
        ms = self.make()
        base = ms.access_shared(0, conflict_degree=1)
        worse = ms.access_shared(0, conflict_degree=8)
        assert worse > base

    def test_access_dispatches_by_opcode(self):
        ms = self.make()
        ld = Instruction(Opcode.LDG, dst_reg=1, src_regs=(0,), mem=MemRef(0))
        t = ms.access(compiled(ld), 0, now=0)
        assert t > 0
        lds = Instruction(Opcode.LDS, dst_reg=1, src_regs=(0,))
        assert ms.access(compiled(lds), 0, now=0) == ms.shared.latency

    def test_access_rejects_non_memory(self):
        ms = self.make()
        with pytest.raises(ValueError):
            ms.access(compiled(Instruction(Opcode.FADD, dst_reg=0, src_regs=(1,))), 0, now=0)


@given(
    lines=st.integers(min_value=1, max_value=16),
    base=st.integers(min_value=0, max_value=1 << 20),
)
@settings(max_examples=40, deadline=None)
def test_property_completion_monotonic_with_issue_time(lines, base):
    ms = MemorySubsystem(volta_v100())
    early = ms.access_global(mem_row(base * 128, num_lines=lines), now=0)
    ms2 = MemorySubsystem(volta_v100())
    late = ms2.access_global(mem_row(base * 128, num_lines=lines), now=500)
    assert late.completion_cycle >= early.completion_cycle
    assert early.completion_cycle >= lines - 1


class TestMultiChannelDRAM:
    def test_channels_independent(self):
        d = DRAM(latency=100, bytes_per_cycle=64, line_bytes=128, num_channels=2)
        a = d.access(0, line_address=0)
        b = d.access(0, line_address=1)  # other channel: no serialization
        assert a == b == 102

    def test_same_channel_serializes(self):
        d = DRAM(latency=100, bytes_per_cycle=64, line_bytes=128, num_channels=2)
        a = d.access(0, line_address=0)
        b = d.access(0, line_address=2)  # same channel (2 % 2 == 0)
        assert b == a + 2

    def test_utilization(self):
        d = DRAM(latency=0, bytes_per_cycle=128, line_bytes=128, num_channels=2)
        d.access(0, 0)
        d.access(0, 1)
        assert d.utilization(10) == pytest.approx(0.1)
        assert d.utilization(0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DRAM(latency=0, bytes_per_cycle=1, line_bytes=128, num_channels=0)

    def test_more_channels_speed_up_streams(self):
        from repro import simulate, volta_v100
        from repro.trace import TraceBuilder, make_kernel

        def stream_kernel():
            warps = []
            for w in range(8):
                tb = TraceBuilder()
                for i in range(16):
                    # rotate destinations so the loads are independent
                    tb.global_load(1 + (i % 8), 0, (w << 22) + i * 128 * 3,
                                   num_lines=4)
                warps.append(tb.build())
            return make_kernel("stream", warps)

        import dataclasses

        # Narrow the per-channel service rate so a single channel is the
        # bottleneck; four channels then recover the lost bandwidth.
        base = volta_v100()
        narrow = dataclasses.replace(base.memory, dram_bytes_per_cycle=8)
        one = base.replace(memory=narrow)
        four = base.replace(
            memory=dataclasses.replace(narrow, dram_channels=4)
        )
        slow = simulate(stream_kernel(), one, num_sms=1).cycles
        fast = simulate(stream_kernel(), four, num_sms=1).cycles
        assert fast < slow
