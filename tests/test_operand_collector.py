"""Tests for collector units, the arbitration unit, and the register file."""

import pytest

from repro.core import ArbitrationUnit, CollectorUnit, RegisterFile, ThreadBlock, Warp
from repro.isa import fadd, ffma
from repro.trace import CTATrace, WarpTrace


def dummy_warp(inst=fadd(0, 1, 2)):
    """A warp whose trace cursor sits on ``inst`` (what a CU allocation takes)."""
    tr = WarpTrace.from_instructions([inst])
    cta = ThreadBlock(0, CTATrace([tr]), regs=1024, shared_mem=0)
    w = Warp(0, cta, tr, subcore_id=0, age=0)
    cta.add_warp(w)
    return w


class TestCollectorUnit:
    def test_lifecycle(self):
        cu = CollectorUnit(0)
        assert cu.free and not cu.ready
        cu.allocate(dummy_warp(ffma(0, 1, 2, 3)), cycle=5)
        assert not cu.free and not cu.ready
        assert cu.pending_operands == 3
        for _ in range(3):
            cu.operand_granted()
        assert cu.ready
        cu.release()
        assert cu.free

    def test_double_allocation_rejected(self):
        cu = CollectorUnit(0)
        cu.allocate(dummy_warp(), cycle=0)
        with pytest.raises(RuntimeError):
            cu.allocate(dummy_warp(), cycle=0)

    def test_extra_grant_rejected(self):
        cu = CollectorUnit(0)
        cu.allocate(dummy_warp(), cycle=0)
        cu.operand_granted()
        cu.operand_granted()
        with pytest.raises(RuntimeError):
            cu.operand_granted()

    def test_zero_operand_instruction_is_immediately_ready(self):
        cu = CollectorUnit(0)
        from repro.isa import Instruction, Opcode

        cu.allocate(dummy_warp(Instruction(Opcode.NOP)), cycle=0)
        assert cu.ready


class TestArbitrationUnit:
    def make_cu_with_requests(self, arb, banks):
        cu = CollectorUnit(0)
        cu.allocate(dummy_warp(ffma(0, 1, 2, 3)), cycle=0)
        cu.pending_operands = len(banks)
        for b in banks:
            arb.request(cu, b)
        return cu

    def test_one_grant_per_bank_per_cycle(self):
        arb = ArbitrationUnit(num_banks=2)
        cu = self.make_cu_with_requests(arb, [0, 0, 1])
        assert arb.grant_cycle(0) == 2  # one from each bank
        assert cu.pending_operands == 1
        assert arb.grant_cycle(1) == 1
        assert cu.ready is False or cu.pending_operands == 0

    def test_conflict_cycles_counted(self):
        arb = ArbitrationUnit(num_banks=2)
        self.make_cu_with_requests(arb, [0, 0])
        arb.grant_cycle(0)
        assert arb.conflict_cycles == 1
        arb.grant_cycle(1)
        assert arb.conflict_cycles == 1

    def test_fifo_order_within_bank(self):
        arb = ArbitrationUnit(num_banks=1)
        cu_a = self.make_cu_with_requests(arb, [0])
        cu_b = self.make_cu_with_requests(arb, [0])
        arb.grant_cycle(0)
        assert cu_a.pending_operands == 0
        assert cu_b.pending_operands == 1

    def test_multiple_read_ports(self):
        arb = ArbitrationUnit(num_banks=1, read_ports=2)
        self.make_cu_with_requests(arb, [0, 0])
        assert arb.grant_cycle(0) == 2

    def test_scores_sum_queue_lengths(self):
        arb = ArbitrationUnit(num_banks=2)
        self.make_cu_with_requests(arb, [0, 0, 1])
        # paper example: two operands in bank0, one in bank1
        assert arb.queue_lengths(0) == [2, 1]
        assert arb.score((0, 0, 1), now=0) == 5
        assert arb.score((1,), now=0) == 1

    def test_stale_scores_with_latency(self):
        arb = ArbitrationUnit(num_banks=2, score_latency=10)
        assert arb.queue_lengths(0) == [0, 0]
        self.make_cu_with_requests(arb, [0, 0, 0])
        arb.grant_cycle(0)  # end-of-cycle 0 state: [2, 0]
        # The scheduler sees the state from 10 cycles earlier.
        assert arb.queue_lengths(5) == [0, 0]    # t=-5: before any request
        assert arb.queue_lengths(10) == [2, 0]   # t=0 state becomes visible
        arb.grant_cycle(1)  # end-of-cycle 1 state: [1, 0]
        assert arb.queue_lengths(10) == [2, 0]
        assert arb.queue_lengths(11) == [1, 0]

    def test_delayed_scores_track_changes(self):
        arb = ArbitrationUnit(num_banks=2, score_latency=2)
        self.make_cu_with_requests(arb, [0, 0, 1])
        arb.grant_cycle(0)   # end of cycle 0: [1, 0]
        arb.grant_cycle(1)   # end of cycle 1: [0, 0]
        assert arb.queue_lengths(2) == [1, 0]
        assert arb.queue_lengths(3) == [0, 0]

    def test_bank_idle(self):
        arb = ArbitrationUnit(num_banks=2)
        self.make_cu_with_requests(arb, [0])
        assert not arb.bank_idle(0)
        assert arb.bank_idle(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            ArbitrationUnit(0)
        with pytest.raises(ValueError):
            ArbitrationUnit(2, read_ports=0)


class TestRegisterFile:
    def test_bank_mapping_dispatch(self):
        rf = RegisterFile(2, "mod")
        assert rf.bank_of(4, warp_id=1) == 0
        rf2 = RegisterFile(2, "warp_swizzle")
        assert rf2.bank_of(4, warp_id=1) == 1

    def test_src_banks_preserves_duplicates(self):
        rf = RegisterFile(2, "mod")
        banks = rf.src_banks(ffma(9, 2, 2, 3), warp_id=0)
        assert banks == (0, 0, 1)

    def test_counters(self):
        rf = RegisterFile(2)
        rf.note_reads(3)
        rf.note_write()
        assert rf.reads == 3 and rf.writes == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            RegisterFile(0)
