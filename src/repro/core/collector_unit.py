"""Collector units: the staging slots of the operand collector.

Each CU holds a single warp instruction — a warp and the position ``pc`` in
its compiled code — while its source operands are read from the
register-file banks (Fig. 2).  An operand entry is *pending* until the
arbitration unit grants its bank read; when no entries are pending the CU
is ready to dispatch to an execution unit.  A CU is occupied exactly when
it has a warp.  The sub-core allocates a CU at issue
(``SubCore._issue_warp``) and releases it at dispatch
(``SubCore.dispatch_ready_cus``) by writing the slots directly.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .execution import Pipeline
    from .warp import Warp


class CollectorUnit:
    """One collector unit of a sub-core's operand collector."""

    __slots__ = (
        "cu_id",
        "warp",
        "pc",
        "pipe",
        "pending_operands",
        "allocated_cycle",
    )

    def __init__(self, cu_id: int):
        self.cu_id = cu_id
        self.warp: Optional["Warp"] = None
        self.pc = -1
        #: Execution pipeline resolved at allocation time (from the warp's
        #: compiled code), so dispatch never re-derives it from the opcode.
        self.pipe: Optional["Pipeline"] = None
        self.pending_operands = 0
        self.allocated_cycle = -1

    @property
    def free(self) -> bool:
        return self.warp is None

    def operand_granted(self) -> None:
        if self.pending_operands <= 0:
            raise RuntimeError(f"CU {self.cu_id} grant with no pending operands")
        self.pending_operands -= 1

    # -- tracer hook ---------------------------------------------------------

    def occupancy_span(self, now: int) -> "tuple[int, int]":
        """``(allocation cycle, cycles occupied)`` as of ``now``.

        The tracer turns this into one span event per dispatched
        instruction, so collector-unit occupancy (the Fig. 12 quantity)
        reads directly off the exported timeline.  Call before the CU is
        released — releasing resets ``allocated_cycle``.
        """
        return self.allocated_cycle, max(1, now - self.allocated_cycle)

    # -- sanitizer hook ------------------------------------------------------

    def validate(self) -> list:
        """Occupancy invariants of this CU (consumed by the sanitizer).

        Returns a list of structured error dicts; empty when consistent.
        """
        errors = []
        if self.free:
            if self.pending_operands != 0:
                errors.append(
                    {
                        "invariant": "cu-occupancy",
                        "message": f"free CU {self.cu_id} has pending operands",
                        "counter": "pending_operands",
                        "expected": 0,
                        "actual": self.pending_operands,
                    }
                )
            return errors
        assert self.warp is not None
        limit = self.warp.code.num_src[self.pc]
        if not 0 <= self.pending_operands <= limit:
            errors.append(
                {
                    "invariant": "cu-occupancy",
                    "message": (
                        f"CU {self.cu_id} pending operands outside "
                        "[0, num_src_operands]"
                    ),
                    "counter": "pending_operands",
                    "expected": f"0..{limit}",
                    "actual": self.pending_operands,
                }
            )
        return errors
