"""End-to-end GPU tests: cycle loop, TB scheduler, determinism, multi-SM."""

import pytest

from repro import GPU, DeadlockError, KernelLaunch, simulate, volta_v100
from repro.gpu import ThreadBlockScheduler
from repro.trace import TraceBuilder, make_kernel

from tests.conftest import fma_warp, independent_warp, simple_kernel


class TestRun:
    def test_simple_kernel_completes(self):
        stats = simulate(simple_kernel(), volta_v100(), num_sms=1)
        assert stats.cycles > 0
        # 8 warps x (32 FMAs + EXIT)
        assert stats.instructions == 8 * 33

    def test_determinism(self):
        k = simple_kernel()
        a = simulate(k, volta_v100(), num_sms=1)
        b = simulate(k, volta_v100(), num_sms=1)
        assert a.cycles == b.cycles
        assert a.instructions == b.instructions
        assert a.sms[0].issue_counts == b.sms[0].issue_counts

    def test_multi_cta_waves(self):
        k = make_kernel("k", [fma_warp(16) for _ in range(32)], num_ctas=4)
        one_wave = make_kernel("k1", [fma_warp(16) for _ in range(32)], num_ctas=1)
        s4 = simulate(k, volta_v100(), num_sms=1)
        s1 = simulate(one_wave, volta_v100(), num_sms=1)
        # 4 CTAs of 32 warps: 2 resident at a time -> at least 2 waves
        assert s4.cycles > s1.cycles
        assert s4.sms[0].ctas_completed == 4

    def test_more_sms_go_faster(self):
        k = make_kernel("k", [fma_warp(64) for _ in range(32)], num_ctas=8)
        s1 = simulate(k, volta_v100(), num_sms=1)
        s4 = simulate(k, volta_v100(), num_sms=4)
        assert s4.cycles < s1.cycles
        assert sum(sm.ctas_completed for sm in s4.sms) == 8

    def test_kernel_launch_max_sms(self):
        k = make_kernel("k", [fma_warp(16) for _ in range(32)], num_ctas=4)
        gpu = GPU(volta_v100(), num_sms=4)
        stats = gpu.run(KernelLaunch(k, max_sms=1))
        assert stats.sms[0].ctas_completed == 4
        assert all(s.ctas_completed == 0 for s in stats.sms[1:])

    def test_sequential_kernels_on_same_gpu(self):
        gpu = GPU(volta_v100(), num_sms=1)
        s1 = gpu.run(simple_kernel())
        s2 = gpu.run(simple_kernel())
        assert s1.cycles > 0 and s2.cycles > 0

    def test_max_cycles_guard(self):
        k = make_kernel("k", [fma_warp(512) for _ in range(8)])
        with pytest.raises(DeadlockError):
            simulate_with_limit(k, max_cycles=10)

    def test_wedged_sm_raises_deadlock_not_hang(self):
        # An SM whose warps all block on a writeback that never arrives
        # makes next_event() return None with CTAs still resident; the
        # cycle loop must diagnose the deadlock instead of spinning or
        # fast-forwarding past it.
        from repro.core.warp import WarpState

        gpu = GPU(volta_v100(), num_sms=1)
        sm = gpu.sms[0]
        k = simple_kernel()
        assert sm.try_allocate_cta(k, k.ctas[0], cta_id=0, now=0)
        for sc in sm.subcores:
            for w in sc.warps:
                w._pending |= 1 << 99  # writeback never scheduled
                w.set_state(WarpState.BLOCKED)
        assert sm.next_event(0) is None
        with pytest.raises(DeadlockError, match="no.*pending events"):
            gpu._advance([sm], 0, "wedged")

    def test_oversized_cta_rejected(self):
        k = make_kernel("k", [fma_warp(4) for _ in range(65)])
        with pytest.raises(ValueError, match="never fit"):
            simulate(k, volta_v100(), num_sms=1)

    def test_memory_stats_populated(self):
        tb = TraceBuilder()
        for i in range(8):
            tb.global_load(dst=1, addr_reg=0, base_address=i * 4096, num_lines=4)
        k = make_kernel("mem", [tb.build() for _ in range(4)])
        stats = simulate(k, volta_v100(), num_sms=1)
        assert stats.l1_misses > 0
        assert stats.dram_accesses > 0

    def test_fast_forward_preserves_results(self):
        # A memory-latency-bound kernel exercises the fast-forward path;
        # IPC must match a config whose DRAM is instant only in latency.
        tb = TraceBuilder()
        tb.global_load(dst=1, addr_reg=0, base_address=0)
        tb.extend([])
        k = make_kernel("mem", [tb.build()])
        s = simulate(k, volta_v100(), num_sms=1)
        mem = volta_v100().memory
        # LDG must pay at least L1+L2+DRAM latency
        assert s.cycles > mem.dram_latency


class TestThreadBlockScheduler:
    def test_round_robin_distribution(self):
        cfg = volta_v100()
        gpu = GPU(cfg, num_sms=4)
        k = make_kernel("k", [fma_warp(8) for _ in range(32)], num_ctas=8)
        gpu.run(k)
        per_sm = [sm.ctas_completed for sm in gpu.sms]
        assert per_sm == [2, 2, 2, 2]

    def test_launch_rejects_double_launch(self):
        cfg = volta_v100()
        gpu = GPU(cfg, num_sms=1)
        sched = ThreadBlockScheduler(gpu.sms)
        k = simple_kernel()
        sched.launch(k)
        with pytest.raises(RuntimeError):
            sched.launch(k)

    def test_needs_sms(self):
        with pytest.raises(ValueError):
            ThreadBlockScheduler([])

    def test_pending_counts(self):
        cfg = volta_v100()
        gpu = GPU(cfg, num_sms=1)
        sched = ThreadBlockScheduler(gpu.sms)
        k = make_kernel("k", [fma_warp(4) for _ in range(32)], num_ctas=5)
        sched.launch(k)
        assert sched.pending_ctas == 5
        placed = sched.fill(0)
        assert placed == 2  # 64 warp slots / 32 warps per CTA
        assert sched.pending_ctas == 3
        assert not sched.done


class TestStats:
    def test_ipc_and_summary(self):
        s = simulate(simple_kernel(), volta_v100(), num_sms=1)
        assert 0 < s.ipc < 4 * 4  # bounded by total issue width
        text = s.summary()
        assert "cycles" in text and "IPC" in text

    def test_rf_reads_match_trace(self):
        k = make_kernel("k", [independent_warp(16) for _ in range(4)])
        s = simulate(k, volta_v100(), num_sms=1)
        assert s.total_rf_reads() == 4 * 16 * 2

    def test_issue_cov_zero_for_balanced(self):
        k = make_kernel("k", [fma_warp(32) for _ in range(8)])
        s = simulate(k, volta_v100(), num_sms=1)
        assert s.issue_cov() < 0.05


def simulate_with_limit(kernel, max_cycles):
    gpu = GPU(volta_v100(), num_sms=1)
    return gpu.run(kernel, max_cycles=max_cycles)
