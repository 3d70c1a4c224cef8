"""Unit tests for the warp-scheduler policies.

State is set the way the sub-core sets it: ``sched.last_issued = w`` on
issue, ``arb.queues[b].append(cu); arb.pending += 1`` per queued read
(``enqueue``), and
every warp carries its bank view (``make_warps``), as after
``SubCore.add_warp``.
"""

import pytest

from repro.config import SchedulerPolicy, volta_v100
from repro.core import (
    ArbitrationUnit,
    BankStealingScheduler,
    CollectorUnit,
    GTOScheduler,
    LRRScheduler,
    RBAScheduler,
    ThreadBlock,
    Warp,
    make_scheduler,
)
from repro.isa import Instruction, Opcode, fadd, ffma
from repro.regalloc import get_mapping
from repro.trace import CTATrace, WarpTrace

from .test_operand_collector import enqueue


def make_warps(instr_lists):
    traces = [WarpTrace.from_instructions(instrs) for instrs in instr_lists]
    cta = ThreadBlock(0, CTATrace(traces), regs=4096, shared_mem=0)
    warps = []
    for i, tr in enumerate(traces):
        w = Warp(warp_id=i, cta=cta, trace=tr, subcore_id=0, age=i)
        w.set_bank_view(get_mapping("mod"), 2)  # scheduler_pair's layout
        cta.add_warp(w)
        warps.append(w)
    return warps


def load_banks(arb, banks):
    """Queue one pending read per entry of ``banks`` on behalf of a busy CU."""
    cu = CollectorUnit(0)
    cu.warp = make_warps([[ffma(4, 0, 2, 4)]])[0]
    cu.pending_operands = len(banks)
    enqueue(arb, cu, banks)
    return cu


def scheduler_pair(cls, score_latency=0):
    arb = ArbitrationUnit(2, score_latency=score_latency)
    return cls(arb), arb


class TestGTO:
    def test_prefers_last_issued(self):
        sched, _ = scheduler_pair(GTOScheduler)
        warps = make_warps([[fadd(0, 1, 2)]] * 3)
        sched.last_issued = warps[2]
        assert sched.select(warps, now=0) is warps[2]

    def test_falls_back_to_oldest(self):
        sched, _ = scheduler_pair(GTOScheduler)
        warps = make_warps([[fadd(0, 1, 2)]] * 3)
        sched.last_issued = warps[2]
        assert sched.select(warps[:2], now=0) is warps[0]

    def test_empty_candidates(self):
        sched, _ = scheduler_pair(GTOScheduler)
        assert sched.select([], now=0) is None

    def test_note_warp_removed_clears_greedy(self):
        sched, _ = scheduler_pair(GTOScheduler)
        warps = make_warps([[fadd(0, 1, 2)]] * 2)
        sched.last_issued = warps[1]
        sched.note_warp_removed(warps[1])
        assert sched.select(warps, now=0) is warps[0]


class TestLRR:
    def test_rotates(self):
        sched, _ = scheduler_pair(LRRScheduler)
        warps = make_warps([[fadd(0, 1, 2)]] * 3)
        assert sched.select(warps, now=0) is warps[0]
        sched.last_issued = warps[0]
        assert sched.select(warps, now=0) is warps[1]
        sched.last_issued = warps[2]
        assert sched.select(warps, now=0) is warps[0]  # wrap-around


class TestRBA:
    def test_picks_low_pressure_bank(self):
        sched, arb = scheduler_pair(RBAScheduler)
        load_banks(arb, [0, 0])  # pending requests on bank 0
        # warp A reads bank 0 (even regs); warp B reads bank 1 (odd regs).
        wa, wb = make_warps([[fadd(9, 0, 2)], [fadd(9, 1, 3)]])
        wb.age = 5  # older warp is A; GTO would pick A
        assert sched.select([wa, wb], now=0) is wb

    def test_tie_breaks_by_age(self):
        sched, _ = scheduler_pair(RBAScheduler)
        warps = make_warps([[fadd(9, 0, 1)], [fadd(9, 0, 1)]])
        assert sched.select(warps, now=0) is warps[0]

    def test_zero_source_instructions_score_zero(self):
        sched, arb = scheduler_pair(RBAScheduler)
        load_banks(arb, [0, 1])
        reader, barrier_warp = make_warps(
            [[fadd(9, 0, 1)], [Instruction(Opcode.BAR)]]
        )
        barrier_warp.age = 10
        assert sched.select([reader, barrier_warp], now=0) is barrier_warp

    def test_respects_stale_scores(self):
        sched, arb = scheduler_pair(RBAScheduler, score_latency=100)
        # queues currently loaded on bank 0, but the visible snapshot is
        # empty, so RBA behaves like age order.
        arb.queue_lengths(0)  # take the t=0 snapshot first
        load_banks(arb, [0, 0])
        wa, wb = make_warps([[fadd(9, 0, 2)], [fadd(9, 1, 3)]])
        assert sched.select([wa, wb], now=5) is wa  # stale: age order


class TestBankStealing:
    def test_steals_only_idle_bank_warps(self):
        sched, arb = scheduler_pair(BankStealingScheduler)
        load_banks(arb, [0])  # bank 0 busy, bank 1 idle
        even_warp, odd_warp = make_warps([[fadd(9, 0, 2)], [fadd(9, 1, 3)]])
        assert sched.steal_candidate([even_warp, odd_warp], now=0) is odd_warp

    def test_no_candidate_when_all_banks_busy(self):
        sched, arb = scheduler_pair(BankStealingScheduler)
        load_banks(arb, [0, 1])
        warps = make_warps([[fadd(9, 0, 2)]])
        assert sched.steal_candidate(warps, now=0) is None

    def test_flag(self):
        assert BankStealingScheduler.steals_banks
        assert not GTOScheduler.steals_banks


class TestFactory:
    def test_make_scheduler_dispatch(self):
        arb = ArbitrationUnit(2)
        for policy, cls in [
            (SchedulerPolicy.GTO, GTOScheduler),
            (SchedulerPolicy.LRR, LRRScheduler),
            (SchedulerPolicy.RBA, RBAScheduler),
            (SchedulerPolicy.BANK_STEALING, BankStealingScheduler),
        ]:
            cfg = volta_v100().replace(scheduler=policy)
            assert isinstance(make_scheduler(cfg, arb), cls)


class TestTwoLevel:
    def test_stays_in_active_group(self):
        from repro.core import TwoLevelScheduler

        sched, _ = scheduler_pair(GTOScheduler)  # reuse the arbitration plumbing
        tl = TwoLevelScheduler(sched.arbitration, group_size=2)
        warps = make_warps([[fadd(9, 0, 1)]] * 4)  # ages 0..3 -> groups 0,0,1,1
        assert tl.select(warps, now=0) is warps[0]
        tl.last_issued = warps[0]
        assert tl.select(warps, now=0) is warps[1]

    def test_switches_group_when_active_stalled(self):
        from repro.core import TwoLevelScheduler

        sched, _ = scheduler_pair(GTOScheduler)
        tl = TwoLevelScheduler(sched.arbitration, group_size=2)
        warps = make_warps([[fadd(9, 0, 1)]] * 4)
        # only group-1 warps are ready
        assert tl.select(warps[2:], now=0) is warps[2]
        assert tl.active_group == 1

    def test_group_size_validation(self):
        from repro.core import TwoLevelScheduler

        sched, arb = scheduler_pair(GTOScheduler)
        import pytest as _pytest

        with _pytest.raises(ValueError):
            TwoLevelScheduler(arb, group_size=0)

    def test_factory(self):
        from repro.config import SchedulerPolicy
        from repro.core import TwoLevelScheduler

        arb = ArbitrationUnit(2)
        cfg = volta_v100().replace(scheduler=SchedulerPolicy.TWO_LEVEL)
        assert isinstance(make_scheduler(cfg, arb), TwoLevelScheduler)
