"""Dynamic warp state.

A :class:`Warp` wraps a :class:`~repro.trace.WarpTrace` with the execution
state the sub-core needs: the trace cursor, the scoreboard of pending
register writes, and the scheduling state (running / blocked on a hazard /
waiting at a barrier / finished).  ``age`` is the warp's dispatch order on
its scheduler — the GTO tie-break key.

The scoreboard is an integer bitmask (bit *r* set ⇔ register *r* has an
outstanding writeback), and hazard checks are a single AND against the
per-instruction hazard masks of the warp's compiled code
(:class:`~repro.trace.compiled.CompiledWarp`, attached at construction).
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Tuple, TYPE_CHECKING

from ..trace.compiled import compile_warp_trace

if TYPE_CHECKING:  # pragma: no cover
    from ..regalloc import BankMapper
    from ..trace import WarpTrace
    from .thread_block import ThreadBlock


class WarpState(enum.Enum):
    READY = "ready"            # next instruction can be considered for issue
    BLOCKED = "blocked"        # scoreboard hazard on the next instruction
    AT_BARRIER = "at_barrier"  # issued BAR, waiting for the CTA
    MIGRATING = "migrating"    # register state in transit between sub-cores
    FINISHED = "finished"      # issued EXIT

#: States in which a warp still has instructions to run (it will become
#: issuable again without outside help beyond scheduled events).
RUNNABLE_STATES = frozenset({WarpState.READY, WarpState.BLOCKED, WarpState.MIGRATING})


class Warp:
    """One warp resident on a sub-core."""

    __slots__ = (
        "warp_id",
        "cta",
        "trace",
        "code",
        "subcore_id",
        "age",
        "pc",
        "state",
        "_pending",
        "issued_instructions",
        "finish_cycle",
        "ready_pool",
        "_row",
    )

    def __init__(
        self,
        warp_id: int,
        cta: "ThreadBlock",
        trace: "WarpTrace",
        subcore_id: int,
        age: int,
    ):
        self.warp_id = warp_id
        self.cta = cta
        self.trace = trace
        #: The trace's compiled form (shared across warps on the same trace).
        self.code = compile_warp_trace(trace)
        self.subcore_id = subcore_id
        self.age = age
        self.pc = 0
        self.state = WarpState.READY
        #: Scoreboard bitmask: bit r set ⇔ register r has an outstanding
        #: writeback.
        self._pending = 0
        self.issued_instructions = 0
        self.finish_cycle: Optional[int] = None
        #: The owning sub-core's ready pool (kept in sync by set_state).
        #: An insertion-ordered dict-as-set — see SubCore.ready.
        self.ready_pool: Optional[Dict["Warp", None]] = None
        #: Pre-resolved source-bank rows (set_bank_view, called by
        #: SubCore.add_warp; identical across sub-cores of a config, so
        #: they survive migration).  Empty until a view is attached.
        self._row: Tuple[Tuple[int, ...], ...] = ()

    # -- trace cursor ------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.state is WarpState.FINISHED

    # -- hazards -----------------------------------------------------------

    def set_state(self, state: WarpState) -> None:
        """Transition state, keeping the sub-core's ready pool in sync."""
        self.state = state
        pool = self.ready_pool
        if pool is not None:
            if state is WarpState.READY:
                pool[self] = None
            else:
                pool.pop(self, None)

    def refresh_state(self) -> None:
        """Recompute READY/BLOCKED from the scoreboard (after a writeback)."""
        state = self.state
        if state is not WarpState.READY and state is not WarpState.BLOCKED:
            return
        pending = self._pending
        if not pending:
            # Empty scoreboard: no mask can match (EXIT's all-ones included).
            self.set_state(WarpState.READY)
            return
        code = self.code
        pc = self.pc
        # Past-the-end cursor (EXIT issued, finish() not applied yet): the
        # trailing EXIT's all-ones mask is the right conservative answer.
        mask = code.hazard_masks[pc] if pc < code.length else -1
        self.set_state(WarpState.BLOCKED if pending & mask else WarpState.READY)

    # -- lifecycle hooks called by the sub-core ------------------------------

    def note_issue(self) -> None:
        """Advance past the instruction at ``pc``; mark its destination pending."""
        self.issued_instructions += 1
        code = self.code
        pc = self.pc
        self._pending |= code.dst_bits[pc]
        self.pc = pc = pc + 1
        if pc < code.length:
            if self._pending & code.hazard_masks[pc]:
                self.set_state(WarpState.BLOCKED)
            elif self.state is WarpState.BLOCKED:
                self.set_state(WarpState.READY)

    # -- bank-layout view (attached by the owning sub-core) ------------------

    def set_bank_view(self, mapper: "BankMapper", num_banks: int) -> None:
        """Attach ``_row``, the pre-resolved source-bank rows.

        ``_row[pc]`` holds the bank of each source operand of the
        instruction at ``pc`` (duplicates kept), resolved at trace-compile
        time (``CompiledWarp.bank_table``); the issue path and the RBA and
        bank-stealing schedulers read it directly.
        """
        self._row = self.code.bank_table(mapper, num_banks).row_for(self.warp_id)

    def complete_write(self, reg: int) -> None:
        # refresh_state with the scoreboard update folded in: this runs once
        # per writeback (the busiest warp wake-up path), so the state
        # recompute and ready-pool sync are inlined rather than delegated.
        pending = self._pending & ~(1 << reg)
        self._pending = pending
        state = self.state
        if state is not WarpState.READY and state is not WarpState.BLOCKED:
            return
        if pending:
            code = self.code
            pc = self.pc
            mask = code.hazard_masks[pc] if pc < code.length else -1
            ready = not pending & mask
        else:
            ready = True
        pool = self.ready_pool
        if ready:
            self.state = WarpState.READY
            if pool is not None:
                pool[self] = None
        else:
            self.state = WarpState.BLOCKED
            if pool is not None:
                pool.pop(self, None)

    def finish(self, cycle: int) -> None:
        self.set_state(WarpState.FINISHED)
        self.finish_cycle = cycle

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Warp(id={self.warp_id}, sc={self.subcore_id}, pc={self.pc}/"
            f"{len(self.trace)}, {self.state.value})"
        )
