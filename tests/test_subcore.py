"""Unit tests for the sub-core's per-cycle phases."""

import pytest

from repro.config import volta_v100
from repro.core import StreamingMultiprocessor, WarpState
from repro.isa import FuncUnit, Instruction, Opcode, fadd, ffma, iadd
from repro.memory import MemorySubsystem
from repro.trace import WarpTrace, make_kernel


def make_subcore(config=None):
    cfg = config if config is not None else volta_v100()
    sm = StreamingMultiprocessor(0, cfg, MemorySubsystem(cfg))
    return sm, sm.subcores[0]


def load_warps(sm, instr_lists, regs_per_thread=32):
    traces = [WarpTrace.from_instructions(list(b)) for b in instr_lists]
    k = make_kernel("k", traces, regs_per_thread=regs_per_thread)
    assert sm.try_allocate_cta(k, k.ctas[0], 0, 0)
    return [w for sc in sm.subcores for w in sc.warps]


class TestIssuePhase:
    def test_register_instruction_allocates_cu(self):
        sm, sc = make_subcore()
        load_warps(sm, [[fadd(8, 0, 1)]] * 4)  # one warp per sub-core
        sc.issue(now=0)
        assert sc._busy_cus == 1
        assert sc.arbitration.pending == 0 or sc.arbitration.pending <= 2

    def test_issue_width_limits_to_one(self):
        sm, sc = make_subcore()
        load_warps(sm, [[fadd(8, 0, 1), fadd(9, 2, 3)]] * 8)  # 2 warps/sub-core
        issued = sc.issue(now=0)
        assert issued == 1

    def test_no_cu_stall(self):
        sm, sc = make_subcore()
        load_warps(sm, [[fadd(8, 0, 1), fadd(9, 2, 3), fadd(10, 4, 5)]] * 12)
        sc.issue(now=0)
        sc.issue(now=1)  # both CUs now busy (no grants ran)
        stalls_before = sc.issue_stall_no_cu
        sc.issue(now=2)
        assert sc.issue_stall_no_cu == stalls_before + 1

    def test_direct_issue_bypasses_cu(self):
        sm, sc = make_subcore()
        load_warps(sm, [[Instruction(Opcode.BAR)]] * 4)
        issued = sc.issue(now=0)
        assert issued == 1
        assert sc._busy_cus == 0  # BAR never touches the operand collector

    def test_no_ready_warp_stall_counted(self):
        sm, sc = make_subcore()
        assert sc.issue(now=0) == 0
        assert sc.issue_stall_no_ready == 1


class TestCollectAndDispatch:
    def test_full_pipeline_one_instruction(self):
        sm, sc = make_subcore()
        warps = load_warps(sm, [[fadd(8, 0, 1)]] * 4)
        w = sc.warps[0]
        sm.step(0)   # issue + collect both operands (2 banks)
        cu = sc.collector_units[0]
        assert cu.warp is w and not cu.pending_operands  # collected
        sm.step(1)   # dispatch
        assert sc._busy_cus == 0
        # FADD: interval 2 + latency 4 after dispatch at t=1 -> wb at t=7
        assert w._pending == 1 << 8 and sm._wb_heap[0][0] == 7
        sm.step(7)
        assert w._pending == 0

    def test_same_bank_operands_serialize(self):
        cfg = volta_v100().replace(bank_mapping="mod")
        sm, sc = make_subcore(cfg)
        # both sources even -> both in bank 0
        load_warps(sm, [[fadd(9, 0, 2)]] * 4)
        sm.step(0)
        assert sc.arbitration.pending == 1  # one granted, one queued
        assert sc.arbitration.conflict_cycles == 1

    def test_grants_counted_in_register_file(self):
        sm, sc = make_subcore()
        load_warps(sm, [[ffma(9, 0, 1, 2)]] * 4)
        sm.step(0)
        sm.step(1)
        assert sc.register_file.reads == 3


class TestPortGate:
    def test_collected_instruction_waits_for_its_port(self):
        sm, sc = make_subcore()
        load_warps(sm, [[fadd(8, 0, 1), fadd(9, 2, 3)]] * 4)  # one warp/sub-core
        fp32 = sc.execution.pipelines[FuncUnit.FP32]
        sm.step(0)  # issue #1, collect
        sm.step(1)  # dispatch #1 (16 lanes: port busy until 3); issue #2, collect
        assert fp32.port_free == [3] and fp32.stats.issued == 1
        sm.step(2)  # #2 is collected but the port is busy
        cu = sc.collector_units[0]
        assert sc._busy_cus == 1 and not cu.pending_operands
        assert fp32.stats.issued == 1
        sm.step(3)
        assert sc._busy_cus == 0 and fp32.stats.issued == 2
        assert fp32.port_free == [5] and fp32.stats.busy_cycles == 4

    def test_direct_issue_waits_for_its_port(self):
        sm, sc = make_subcore()
        # No register sources, independent destinations.
        body = [Instruction(Opcode.MUFU, dst_reg=8), Instruction(Opcode.MUFU, dst_reg=9)]
        load_warps(sm, [body] * 4)
        assert sc.issue(now=0) == 1  # 4 SFU lanes: port busy until 8
        stalls = sc.issue_stall_no_cu
        assert sc.issue(now=1) == 0
        assert sc.issue_stall_no_cu == stalls + 1
        assert sc.issue(now=8) == 1


class TestSchedulerContract:
    def test_policy_sees_last_issued_advance(self):
        """A policy written from docs/extending.md overrides ``select`` only;
        the sub-core moves ``last_issued`` on every issue."""
        from repro.core import WarpScheduler

        class NotTheLastOne(WarpScheduler):
            name = "not_the_last_one"

            def __init__(self, arbitration):
                super().__init__(arbitration)
                self.seen = []

            def select(self, candidates, now):
                self.seen.append(self.last_issued)
                others = [w for w in candidates if w is not self.last_issued]
                return min(others or candidates, key=lambda w: w.age)

        sm, sc = make_subcore()
        load_warps(sm, [[fadd(8, 0, 1), fadd(9, 2, 3)]] * 8)  # 2 warps/sub-core
        policy = sc.scheduler = NotTheLastOne(sc.arbitration)
        first, second = sc.warps
        assert sc.issue(now=0) == 1 and policy.last_issued is first
        assert sc.issue(now=1) == 1 and policy.last_issued is second
        assert policy.seen == [None, first]
        sc.remove_warp(second, 0)  # note_warp_removed: no stale pointer
        assert policy.last_issued is None


class TestQuiescence:
    def test_fresh_subcore_quiescent(self):
        _, sc = make_subcore()
        assert sc.quiescent()

    def test_ready_warp_not_quiescent(self):
        sm, sc = make_subcore()
        load_warps(sm, [[fadd(8, 0, 1)]] * 4)
        assert not sc.quiescent()

    def test_busy_cu_not_quiescent(self):
        sm, sc = make_subcore()
        load_warps(sm, [[fadd(8, 0, 1), fadd(9, 8, 8)]] * 4)
        sm.step(0)
        # warp now blocked on R8 (RAW), but the CU is still in flight
        assert not sc.quiescent()

    def test_blocked_on_memory_is_quiescent(self):
        sm, sc = make_subcore()
        ld = Instruction(
            Opcode.LDG, dst_reg=8, src_regs=(0,),
            mem=__import__("repro.isa", fromlist=["MemRef"]).MemRef(0),
        )
        load_warps(sm, [[ld, fadd(9, 8, 1)]] * 4)
        sm.step(0)  # issue LDG
        sm.step(1)  # dispatch to LDST
        sm.step(2)
        # warp blocked on the load; nothing to do until writeback
        assert sc.quiescent()
        assert sm.next_event(2) is not None  # the writeback event


class TestRegisterAccounting:
    def test_add_remove_warp_tracks_registers(self):
        sm, sc = make_subcore()
        load_warps(sm, [[fadd(8, 0, 1)]] * 4, regs_per_thread=64)
        assert sc.registers_used == 64 * 32
        assert sc.free_registers() == sc.max_registers - 64 * 32

    def test_slot_exhaustion_raises(self):
        sm, sc = make_subcore()
        from repro.core import ThreadBlock, Warp
        from repro.trace import CTATrace

        tr = WarpTrace.from_instructions([fadd(8, 0, 1)])
        cta = ThreadBlock(0, CTATrace([tr]), regs=1024, shared_mem=0)
        for i in range(sc.max_warps):
            w = Warp(i, cta, tr, 0, i)
            sc.add_warp(w, 0)
        with pytest.raises(RuntimeError):
            sc.add_warp(Warp(99, cta, tr, 0, 99), 0)


class TestStallReasonEquivalence:
    """The allocation-free `_stall_reason` rewrite (simcheck RPR101 fix)
    must match the original set-based priority logic on every warp-state
    combination."""

    @staticmethod
    def _reference(states):
        from repro.obs.stall import BARRIER, DRAIN, IDLE, NO_READY_WARP, SCOREBOARD

        if not states:
            return IDLE
        present = set(states)
        if WarpState.BLOCKED in present:
            return SCOREBOARD
        if WarpState.AT_BARRIER in present:
            return BARRIER
        if WarpState.MIGRATING in present or WarpState.READY in present:
            return NO_READY_WARP
        return DRAIN

    def test_matches_reference_on_all_state_combinations(self):
        import itertools
        from types import SimpleNamespace

        _, subcore = make_subcore()
        states = list(WarpState)
        combos = [()]
        for size in (1, 2, 3):
            combos.extend(itertools.product(states, repeat=size))
        for combo in combos:
            subcore.warps = [SimpleNamespace(state=s) for s in combo]
            assert subcore._stall_reason() == self._reference(combo), combo
        subcore.warps = []
