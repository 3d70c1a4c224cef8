"""Warp-scheduler policies.

A scheduler selects, each cycle, which ready warp's next instruction to
issue into a free collector unit.  Policies:

``LRRScheduler``
    Loose round-robin: rotate through warp slots from the last issued.
``GTOScheduler``
    Greedy-then-oldest (the paper's baseline): keep issuing the same warp
    until it stalls, then fall back to the oldest ready warp.
``RBAScheduler``
    Register-bank-aware (Sec. IV-A): order ready warps by the key
    ``(RBA score, age)`` — the score is the summed arbitration-queue length
    over the banks of the instruction's source operands, so the scheduler
    steers issue toward under-used banks.  Ties go to the older warp,
    preserving GTO order among equal scores.
``BankStealingScheduler``
    The comparison point from Jing et al. [36]: GTO issue order, plus an
    opportunistic *steal* pass that pre-issues a warp whose operands sit in
    currently-idle banks when a collector unit would otherwise sit free.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Collection, List, Optional, Sequence

from ..config import GPUConfig, SchedulerPolicy
from .arbitration import ArbitrationUnit
from .warp import Warp


#: C-level age key for min()/sorted(); ties keep iteration order,
#: exactly like the equivalent lambda.
_AGE = attrgetter("age")


class WarpScheduler:
    """Base policy; subclasses override :meth:`select`."""

    name = "base"
    #: Whether the sub-core should run the post-issue bank-stealing pass.
    steals_banks = False

    def __init__(self, arbitration: ArbitrationUnit):
        self.arbitration = arbitration
        #: The warp this sub-core issued last.  Written by the sub-core on
        #: every issue (``SubCore._issue_warp``, steals included); policies
        #: only read it.
        self.last_issued: Optional[Warp] = None

    def select(self, candidates: Collection[Warp], now: int) -> Optional[Warp]:
        raise NotImplementedError

    def selection_info(self, warp: Warp) -> dict:
        """Why ``warp`` was picked, for the event tracer.

        Read *before* the sub-core moves ``last_issued`` — ``greedy``
        compares against the previous issue.
        """
        return {"policy": self.name, "greedy": self.last_issued is warp}

    def note_warp_removed(self, warp: Warp) -> None:
        if self.last_issued is warp:
            self.last_issued = None

    def begin_run(self) -> None:
        """Reset per-kernel scheduling state at the start of a run."""
        self.last_issued = None

    # Bank stealing hook; only the BankStealingScheduler implements it.
    def steal_candidate(
        self, candidates: Collection[Warp], now: int
    ) -> Optional[Warp]:
        return None

    # -- sanitizer hook ------------------------------------------------------

    def validate(self, resident: Sequence[Warp]) -> List[dict]:
        """Scheduler-state invariants (consumed by the sanitizer).

        ``last_issued`` must never point at a warp that left this
        sub-core — a stale pointer would let GTO greedily re-issue a
        migrated/retired warp's successor state.
        """
        if self.last_issued is not None and self.last_issued not in resident:
            return [
                {
                    "invariant": "scheduler-state",
                    "message": (
                        f"last_issued warp {self.last_issued.warp_id} is "
                        "no longer resident on this sub-core"
                    ),
                    "counter": "scheduler.last_issued",
                    "expected": "a resident warp or None",
                    "actual": self.last_issued.warp_id,
                }
            ]
        return []


class LRRScheduler(WarpScheduler):
    name = "lrr"

    def select(self, candidates: Collection[Warp], now: int) -> Optional[Warp]:
        if not candidates:
            return None
        if self.last_issued is None:
            return min(candidates, key=_AGE)
        pivot = self.last_issued.age
        # First warp strictly after the pivot in age order, wrapping around.
        ordered = sorted(candidates, key=_AGE)  # simcheck: hot-ok -- LRR inherently materializes the age-ordered pool per selection
        for w in ordered:
            if w.age > pivot:
                return w
        return ordered[0]


class GTOScheduler(WarpScheduler):
    name = "gto"

    def select(self, candidates: Collection[Warp], now: int) -> Optional[Warp]:
        if not candidates:
            return None
        last = self.last_issued
        if last is not None and last in candidates:
            return last
        return min(candidates, key=_AGE)


class RBAScheduler(WarpScheduler):
    name = "rba"

    def select(self, candidates: Collection[Warp], now: int) -> Optional[Warp]:
        if not candidates:
            return None
        lengths = self.arbitration.queue_lengths(now)
        best = None
        best_key = None
        for w in candidates:
            score = 0
            # The warp's compiled code pre-resolves the operand->bank
            # layout per trace position, so scoring is a couple of tuple
            # reads instead of re-running the bank mapper per operand per
            # candidate per cycle.
            for bank in w._row[w.pc]:
                score += lengths[bank]
            key = (score, w.age)
            if best_key is None or key < best_key:
                best, best_key = w, key
        return best


class BankStealingScheduler(GTOScheduler):
    name = "bank_stealing"
    steals_banks = True

    def steal_candidate(  # simcheck: hot-ok -- bank-stealing policy inherently scans the age-ordered pool per free CU
        self, candidates: Collection[Warp], now: int
    ) -> Optional[Warp]:
        """A ready warp whose next instruction only needs idle banks.

        Called after normal issue when a CU is still free.  With Volta's two
        CUs per sub-core such a free CU is rare, which is exactly why the
        paper measures < 1 % benefit from this design.
        """
        arb = self.arbitration
        for w in sorted(candidates, key=_AGE):
            banks = w._row[w.pc]
            # Iterate the tuple directly: duplicate banks re-check the same
            # idle queue harmlessly, and no set order ever feeds the result
            # (simlint RPR001).
            if banks and all(arb.bank_idle(b) for b in banks):
                return w
        return None


class TwoLevelScheduler(WarpScheduler):
    """Two-level warp scheduling (Narasiman et al. [49]).

    Warps are partitioned into fetch groups of ``group_size``; the
    scheduler round-robins *within* the active group and only moves to the
    next group when no warp of the active group is ready.  Staggering the
    groups de-correlates long-latency stalls — a classic latency-hiding
    baseline, included here as an additional comparison point for RBA.
    """

    name = "two_level"

    def __init__(self, arbitration: ArbitrationUnit, group_size: int = 8):
        super().__init__(arbitration)
        if group_size < 1:
            raise ValueError("group_size must be >= 1")
        self.group_size = group_size
        self.active_group = 0

    def begin_run(self) -> None:
        super().begin_run()
        self.active_group = 0

    def _group(self, warp: Warp) -> int:
        return warp.age // self.group_size

    def select(self, candidates: Collection[Warp], now: int) -> Optional[Warp]:  # simcheck: hot-ok -- two-level policy inherently partitions the pool by fetch group per selection
        if not candidates:
            return None
        in_group = [w for w in candidates if self._group(w) == self.active_group]
        if not in_group:
            # Active group fully stalled: switch to the lowest group that
            # has a ready warp.
            self.active_group = min(self._group(w) for w in candidates)
            in_group = [w for w in candidates if self._group(w) == self.active_group]
        # LRR within the group.
        if self.last_issued is not None and self._group(self.last_issued) == self.active_group:
            pivot = self.last_issued.age
            after = [w for w in in_group if w.age > pivot]
            if after:
                return min(after, key=_AGE)
        return min(in_group, key=_AGE)


def make_scheduler(config: GPUConfig, arbitration: ArbitrationUnit) -> WarpScheduler:
    """Instantiate the scheduler named by ``config.scheduler``."""
    classes = {
        SchedulerPolicy.LRR: LRRScheduler,
        SchedulerPolicy.GTO: GTOScheduler,
        SchedulerPolicy.RBA: RBAScheduler,
        SchedulerPolicy.BANK_STEALING: BankStealingScheduler,
        SchedulerPolicy.TWO_LEVEL: TwoLevelScheduler,
    }
    return classes[config.scheduler](arbitration)
