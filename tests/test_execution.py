"""Tests for the execution-unit pipeline model.

A pipeline is port state; the port booking is the sub-core's dispatch tail
(``SubCore._execute_on``), so every instruction here is dispatched through
it — onto a stand-alone pipeline or onto one of an ``ExecutionUnits`` set.
"""

from repro.config import fully_connected, volta_v100
from repro.core import ExecutionUnits, Pipeline
from repro.isa import FuncUnit, Instruction, Opcode

from .test_subcore import load_warps, make_subcore


def issue(target, opcode, now):
    """Dispatch one ``opcode`` instruction at ``now`` on a pipeline, or on the
    pipeline of its unit; returns the cycle its writeback is scheduled for."""
    pipe = target if isinstance(target, Pipeline) else target.pipelines[opcode.unit]
    sm, sc = make_subcore()
    warp = load_warps(sm, [[Instruction(opcode, dst_reg=8, src_regs=(0, 1))]])[0]
    sc._execute_on(pipe, warp, 0, now)
    ((t_done, _seq, woken, reg),) = sm._wb_heap
    assert (woken, reg) == (warp, 8)
    return t_done


def can_accept(target, opcode, now):
    """The dispatch gate: some port of the pipeline is free at ``now``."""
    pipe = target if isinstance(target, Pipeline) else target.pipelines[opcode.unit]
    return min(pipe.port_free) <= now


class TestPipeline:
    def test_narrow_lanes_stretch_interval(self):
        p = Pipeline(FuncUnit.FP32, lanes=16)
        assert p.lane_interval == 2

    def test_full_width_single_cycle(self):
        p = Pipeline(FuncUnit.FP32, lanes=32)
        assert p.lane_interval == 1

    def test_zero_lanes_modelled_as_slow(self):
        p = Pipeline(FuncUnit.TENSOR, lanes=0)
        assert p.lane_interval == 64

    def test_issue_returns_completion(self):
        p = Pipeline(FuncUnit.FP32, lanes=16)
        done = issue(p, Opcode.FADD, now=10)
        # interval 2 + FADD latency 4
        assert done == 16

    def test_port_busy_after_issue(self):
        p = Pipeline(FuncUnit.FP32, lanes=16)
        assert p.port_free == [0]
        issue(p, Opcode.FADD, now=0)
        assert p.port_free == [2]  # busy through cycle 1, free again at 2

    def test_pooled_lanes_expose_multiple_ports(self):
        p = Pipeline(FuncUnit.FP32, lanes=64)
        issue(p, Opcode.FADD, now=0)
        assert sorted(p.port_free) == [0, 1]  # second port still free
        issue(p, Opcode.FADD, now=0)
        assert p.port_free == [1, 1]

    def test_stats(self):
        p = Pipeline(FuncUnit.FP32, lanes=16)
        issue(p, Opcode.FADD, now=0)
        assert p.stats.issued == 1
        assert p.stats.busy_cycles == 2


class TestExecutionUnits:
    def test_routes_by_unit(self):
        ex = ExecutionUnits(volta_v100())
        fp_done = issue(ex, Opcode.FADD, now=0)
        int_done = issue(ex, Opcode.IADD, now=0)  # separate port: no conflict
        assert fp_done == int_done == 6

    def test_fp_and_int_ports_independent(self):
        ex = ExecutionUnits(volta_v100())
        issue(ex, Opcode.FADD, now=0)
        assert not can_accept(ex, Opcode.FADD, now=0)
        assert can_accept(ex, Opcode.IADD, now=0)

    def test_sfu_is_slow(self):
        ex = ExecutionUnits(volta_v100())
        done = issue(ex, Opcode.MUFU, now=0)
        # 4 SFU lanes -> interval 8, latency 16
        assert done == 24

    def test_fc_tensor_throughput_scales(self):
        part = ExecutionUnits(volta_v100())
        fc = ExecutionUnits(fully_connected())
        issue(part, Opcode.HMMA, now=0)
        assert not can_accept(part, Opcode.HMMA, now=1)  # 8 lanes -> interval 4
        issue(fc, Opcode.HMMA, now=0)
        assert can_accept(fc, Opcode.HMMA, now=1)  # 32 lanes -> interval 1
