"""Tests for the execution-unit pipeline model."""

import pytest

from repro.config import fully_connected, volta_v100
from repro.core import ExecutionUnits, Pipeline
from repro.isa import FuncUnit, Opcode


def issue(target, opcode, now):
    """Issue one ``opcode`` instruction on a pipeline, or on the pipeline of
    its unit: the static timing is all the execution model reads."""
    pipe = target if isinstance(target, Pipeline) else target.pipelines[opcode.unit]
    return pipe.issue(opcode.initiation_interval, opcode.latency, now)


def can_accept(ex, opcode, now):
    return ex.pipelines[opcode.unit].can_accept(now)


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
        assert p.can_accept(0)
        issue(p, Opcode.FADD, now=0)
        assert not p.can_accept(1)
        assert p.can_accept(2)

    def test_pooled_lanes_expose_multiple_ports(self):
        p = Pipeline(FuncUnit.FP32, lanes=64)
        issue(p, Opcode.FADD, now=0)
        assert p.can_accept(0)  # second port still free
        issue(p, Opcode.FADD, now=0)
        assert not p.can_accept(0)

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

    def test_next_free_cycle(self):
        ex = ExecutionUnits(volta_v100())
        assert ex.next_free_cycle() == 0
        issue(ex, Opcode.FADD, now=0)
        assert ex.next_free_cycle() == 0  # other units idle
