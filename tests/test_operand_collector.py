"""Tests for collector units, the arbitration unit, and the register file.

Collector-unit and register-file behaviour is driven through the sub-core
(the ``make_subcore`` / ``load_warps`` fixture): allocation and release
are what ``SubCore._issue_warp`` and ``dispatch_ready_cus`` do.  Bare
arbitration units are loaded with the two statements the issue path
executes per source operand.
"""

import pytest

from repro.config import SchedulerPolicy, volta_v100
from repro.core import (
    ArbitrationUnit,
    CollectorUnit,
    RBAScheduler,
    RegisterFile,
    ThreadBlock,
    Warp,
)
from repro.gpu import GPU
from repro.isa import Instruction, Opcode, fadd, ffma
from repro.regalloc import get_mapping
from repro.trace import CTATrace, WarpTrace

from .conftest import simple_kernel
from .test_subcore import load_warps, make_subcore


def dummy_warp(inst=fadd(0, 1, 2), warp_id=0):
    """A warp whose trace cursor sits on ``inst``, with the bank view of a
    two-bank ``mod``-mapped register file attached."""
    tr = WarpTrace.from_instructions([inst])
    cta = ThreadBlock(0, CTATrace([tr]), regs=1024, shared_mem=0)
    w = Warp(warp_id, cta, tr, subcore_id=0, age=0)
    cta.add_warp(w)
    w.set_bank_view(get_mapping("mod"), 2)
    return w


def enqueue(arb, cu, banks):
    """What SubCore._issue_warp does for a CU's source operands."""
    for b in banks:
        arb.queues[b].append(cu)
        arb.pending += 1


class TestCollectorUnit:
    def test_lifecycle(self):
        sm, sc = make_subcore()
        warp = load_warps(sm, [[ffma(8, 0, 1, 2)]] * 4)[0]
        cu = sc.collector_units[0]
        assert cu.free
        sc.issue(now=5)
        assert not cu.free
        assert (cu.warp, cu.pc, cu.allocated_cycle) == (warp, 0, 5)
        assert cu.pending_operands == 3
        now = 5
        while cu.pending_operands:  # 3 reads on 2 banks: two grant rounds
            sc.arbitration.grant_cycle(now)
            now += 1
        assert now == 7 and not cu.free  # collected, awaiting dispatch
        sc.dispatch_ready_cus(now)
        assert cu.free and sc._busy_cus == 0
        assert (cu.pc, cu.pipe, cu.allocated_cycle) == (-1, None, -1)
        assert cu.validate() == []

    def test_busy_cu_is_not_reallocated(self):
        sm, sc = make_subcore()
        load_warps(sm, [[fadd(8, 0, 1), fadd(9, 2, 3)]] * 8)  # 2 warps/sub-core
        first, second = sc.collector_units
        sc.issue(now=0)
        sc.issue(now=1)  # no grants ran: the first CU is still collecting
        assert (first.pc, first.allocated_cycle) == (0, 0)
        assert (second.pc, second.allocated_cycle) == (1, 1)  # GTO: same warp
        assert sc._busy_cus == 2 and sc.arbitration.pending == 4

    def test_extra_grant_rejected(self):
        for read_ports in (1, 2):  # both grant loops carry the guard
            arb = ArbitrationUnit(num_banks=1, read_ports=read_ports)
            cu = CollectorUnit(0)
            cu.warp = dummy_warp()
            cu.pending_operands = 1
            enqueue(arb, cu, [0])
            assert arb.grant_cycle(0) == 1 and cu.pending_operands == 0
            enqueue(arb, cu, [0])  # a queued read with no operand left to fill
            with pytest.raises(RuntimeError):
                arb.grant_cycle(1)

    def test_zero_operand_instruction_is_immediately_ready(self):
        sm, sc = make_subcore()
        load_warps(sm, [[Instruction(Opcode.NOP)]] * 4)
        assert sc.issue(now=0) == 1
        # Nothing to collect: dispatched in its issue cycle, no CU taken.
        assert sc._busy_cus == 0 and all(cu.free for cu in sc.collector_units)
        assert sum(p.stats.issued for p in sc._pipes) == 1


class TestArbitrationUnit:
    def make_cu_with_requests(self, arb, banks):
        cu = CollectorUnit(0)
        cu.warp = dummy_warp(ffma(0, 1, 2, 3))
        cu.pending_operands = len(banks)
        enqueue(arb, cu, banks)
        return cu

    def test_one_grant_per_bank_per_cycle(self):
        arb = ArbitrationUnit(num_banks=2)
        cu = self.make_cu_with_requests(arb, [0, 0, 1])
        assert arb.grant_cycle(0) == 2  # one from each bank
        assert cu.pending_operands == 1
        assert arb.grant_cycle(1) == 1
        assert cu.pending_operands == 0

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
        # RBA scores a candidate by summing those lengths over its source
        # banks, duplicates counted: (0, 0, 1) -> 5, (1, 1) -> 2.
        sched = RBAScheduler(arb)
        heavy = dummy_warp(ffma(9, 0, 2, 1))
        light = dummy_warp(fadd(9, 1, 3), warp_id=1)
        assert (heavy._row[0], light._row[0]) == ((0, 0, 1), (1, 1))
        light.age = 7  # younger: only the lower score can pick it
        assert sched.select([heavy, light], now=0) is light

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

    def test_delayed_score_history_is_bounded_without_a_reader(self):
        # Nothing calls queue_lengths (a GTO sub-core with a score latency):
        # the history still keeps only what a later read could return.
        arb = ArbitrationUnit(num_banks=1, score_latency=20)
        self.make_cu_with_requests(arb, [0] * 300)
        for now in range(300):
            arb.grant_cycle(now)  # the queue shrinks by one every cycle
        assert len(arb._history) <= arb.score_latency + 1
        assert arb.queue_lengths(299) == [300 - 280]  # end of cycle 279

    def test_delayed_score_history_is_bounded_under_gto(self):
        config = volta_v100().replace(num_sms=1, rba_score_latency=20)
        assert config.scheduler is SchedulerPolicy.GTO
        gpu = GPU(config)
        gpu.run(simple_kernel(warps=16, insts=64))
        lengths = [len(sc.arbitration._history) for sc in gpu.sms[0].subcores]
        assert max(lengths) <= 21, lengths

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
        assert rf.mapper(4, 1, rf.num_banks) == 0
        rf2 = RegisterFile(2, "warp_swizzle")
        assert rf2.mapper(4, 1, rf2.num_banks) == 1

    def test_src_banks_preserves_duplicates(self):
        sm, sc = make_subcore(volta_v100().replace(bank_mapping="mod"))
        warp = load_warps(sm, [[ffma(9, 2, 2, 3)]] * 4)[0]
        assert warp._row[0] == (0, 0, 1)
        sc.issue(now=0)  # each operand queues its own read
        assert [len(q) for q in sc.arbitration.queues] == [2, 1]

    def test_counters(self):
        sm, sc = make_subcore()
        load_warps(sm, [[ffma(9, 0, 1, 2)]] * 4)
        rf = sc.register_file
        for now in range(3):  # issue + 2 grant rounds, then dispatch
            sm.step(now)
        assert rf.reads == 3 and rf.writes == 1
        assert rf.validate() == []

    def test_validation(self):
        with pytest.raises(ValueError):
            RegisterFile(0)
