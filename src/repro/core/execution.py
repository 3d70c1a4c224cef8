"""Execution-unit pipelines of a scheduler domain.

Each functional-unit class (FP32 / INT / SFU / TENSOR / LDST) is a pipeline
with an issue port that stays busy for the instruction's *initiation
interval* — the larger of the opcode's own interval and the lane-width
factor ``ceil(32 / lanes)`` (16 FP32 lanes per Volta sub-core mean an FP32
warp instruction occupies the port for 2 cycles).

A pipeline is state only — port release cycles and counters; the
sub-core's dispatch tail (``SubCore._execute_on``) books the port and
resolves the writeback cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..config import GPUConfig
from ..isa import FuncUnit


@dataclass
class PipelineStats:
    issued: int = 0
    busy_cycles: int = 0


class Pipeline:
    """One functional-unit class of a scheduler domain.

    A domain with ``lanes < 32`` has a single issue port whose initiation
    interval is stretched by ``ceil(32 / lanes)`` (16 FP32 lanes -> 2
    cycles per warp instruction).  A monolithic domain pooling several
    sub-cores' lanes (``lanes >= 64``) exposes ``lanes // 32`` independent
    ports, so a fully-connected SM can start multiple FP32 warps per cycle
    the way its four physical sub-units would.
    """

    __slots__ = ("unit", "lane_interval", "port_free", "single", "stats")

    def __init__(self, unit: FuncUnit, lanes: int):
        self.unit = unit
        # A unit with 0 lanes (e.g. no tensor cores) is modelled as very
        # slow rather than absent.
        self.lane_interval = (32 + lanes - 1) // lanes if lanes > 0 else 64
        ports = max(1, lanes // 32)
        self.port_free = [0] * ports
        #: Precomputed single-port flag: the issue/dispatch hot path asks
        #: "is the port free" once per candidate per cycle, and every
        #: partitioned design has exactly one port per pipeline.
        self.single = ports == 1
        self.stats = PipelineStats()

    def begin_run(self) -> None:
        """Reset issue-port availability at the start of a kernel run.

        A port booked past the end of the previous kernel (intervals run
        up to 64 cycles) must not delay the first instructions of the
        next one; cumulative ``stats`` are left untouched.
        """
        ports = self.port_free
        for i in range(len(ports)):
            ports[i] = 0


class ExecutionUnits:
    """The pipeline set of one scheduler domain (sub-core or monolithic SM)."""

    def __init__(self, config: GPUConfig, scale: int = 1):
        lanes = {
            FuncUnit.FP32: config.fp32_lanes * scale,
            FuncUnit.INT: config.int_lanes * scale,
            FuncUnit.SFU: config.sfu_lanes * scale,
            FuncUnit.TENSOR: config.tensor_units * 8 * scale,  # 8 lanes per unit
            FuncUnit.LDST: config.ldst_units * scale,
            FuncUnit.BRANCH: 32,
            FuncUnit.SYNC: 32,
        }
        self.pipelines: Dict[FuncUnit, Pipeline] = {
            unit: Pipeline(unit, n) for unit, n in lanes.items()
        }

    def begin_run(self) -> None:
        for pipe in self.pipelines.values():
            pipe.begin_run()
