"""Tests for warp state, the scoreboard, and CTA barrier protocol."""

import pytest

from repro.core import ThreadBlock, Warp, WarpState
from repro.isa import bar, exit_, fadd, ffma
from repro.trace import CTATrace, WarpTrace


def make_warp(instrs, warp_id=0, cta=None):
    trace = WarpTrace.from_instructions(instrs)
    if cta is None:
        cta = ThreadBlock(0, CTATrace([trace]), regs=1024, shared_mem=0)
    w = Warp(warp_id=warp_id, cta=cta, trace=trace, subcore_id=0, age=warp_id)
    cta.add_warp(w)
    return w


class TestScoreboard:
    def test_raw_hazard(self):
        w = make_warp([fadd(0, 1, 2), fadd(3, 0, 1)])
        w.note_issue()  # writes R0
        assert w._pending == 1 << 0
        assert w.state is WarpState.BLOCKED  # next reads R0

    def test_waw_hazard(self):
        w = make_warp([fadd(0, 1, 2), fadd(0, 3, 4)])
        w.note_issue()
        assert w.state is WarpState.BLOCKED

    def test_independent_instruction_stays_ready(self):
        w = make_warp([fadd(0, 1, 2), fadd(3, 4, 5)])
        w.note_issue()
        assert w.state is WarpState.READY

    def test_writeback_unblocks(self):
        w = make_warp([fadd(0, 1, 2), fadd(3, 0, 1)])
        w.note_issue()
        w.complete_write(0)
        assert w.state is WarpState.READY
        assert w._pending == 0

    def test_unrelated_writeback_keeps_blocked(self):
        w = make_warp([fadd(0, 1, 2), fadd(5, 6, 7), fadd(3, 0, 1)])
        w.note_issue()   # writes R0
        w.note_issue()   # writes R5, next reads R0
        assert w.state is WarpState.BLOCKED
        w.complete_write(5)
        assert w.state is WarpState.BLOCKED
        w.complete_write(0)
        assert w.state is WarpState.READY

    def test_pc_advances(self):
        w = make_warp([fadd(0, 1, 2), fadd(3, 4, 5)])
        assert w.pc == 0
        w.note_issue()
        assert w.pc == 1
        assert w.issued_instructions == 1

    def test_finish_records_cycle(self):
        w = make_warp([])
        w.finish(123)
        assert w.done
        assert w.finish_cycle == 123


class TestReadyPoolSync:
    def test_pool_tracks_transitions(self):
        pool = {}  # dict-as-set, insertion-ordered (see SubCore.ready)
        w = make_warp([fadd(0, 1, 2), fadd(3, 0, 1)])
        w.ready_pool = pool
        pool[w] = None
        w.note_issue()
        assert w not in pool  # blocked on R0
        w.complete_write(0)
        assert w in pool
        w.finish(5)
        assert w not in pool


class TestBarrierProtocol:
    def make_cta(self, n_warps, body=None):
        body = body if body is not None else [bar()]
        traces = [WarpTrace.from_instructions(list(body)) for _ in range(n_warps)]
        cta = ThreadBlock(0, CTATrace(traces), regs=1024, shared_mem=0)
        warps = [
            Warp(warp_id=i, cta=cta, trace=traces[i], subcore_id=i % 4, age=i)
            for i in range(n_warps)
        ]
        for w in warps:
            cta.add_warp(w)
        return cta, warps

    def test_barrier_holds_until_all_arrive(self):
        cta, warps = self.make_cta(3)
        assert cta.arrive_at_barrier(warps[0]) == []
        assert warps[0].state is WarpState.AT_BARRIER
        assert cta.arrive_at_barrier(warps[1]) == []
        released = cta.arrive_at_barrier(warps[2])
        assert set(released) == set(warps)
        assert all(w.state is WarpState.READY for w in warps)

    def test_exited_warps_count_as_arrived(self):
        cta, warps = self.make_cta(3)
        warps[2].finish(0)
        cta.note_warp_exit(warps[2])
        assert cta.arrive_at_barrier(warps[0]) == []
        released = cta.arrive_at_barrier(warps[1])
        assert set(released) == {warps[0], warps[1]}

    def test_late_exit_releases_barrier(self):
        cta, warps = self.make_cta(2)
        cta.arrive_at_barrier(warps[0])
        warps[1].finish(0)
        released = cta.note_warp_exit(warps[1])
        assert released == [warps[0]]

    def test_two_barriers_in_sequence(self):
        cta, warps = self.make_cta(2, body=[bar(), bar()])
        cta.arrive_at_barrier(warps[0])
        cta.arrive_at_barrier(warps[1])
        # everyone released; second barrier must hold again
        for w in warps:
            w.note_issue()
        assert cta.arrive_at_barrier(warps[0]) == []
        assert set(cta.arrive_at_barrier(warps[1])) == set(warps)

    def test_cta_finished(self):
        cta, warps = self.make_cta(2)
        assert not cta.finished
        for w in warps:
            w.finish(1)
        assert cta.finished
