"""Register-file bank arbitration.

The arbitration unit keeps one FIFO request queue per register-file bank
and grants at most ``read_ports`` requests per bank per cycle (one, on
Volta).  Queue lengths are the signal the RBA scheduler consumes: the score
of a candidate instruction is the summed queue length of its operands'
banks (Sec. IV-A).

To model the score-update latency study (Sec. VI-B4) the unit can expose a
*stale* snapshot of the queue lengths, refreshed only every ``latency``
cycles.

Each per-bank FIFO is a preallocated Python list with a head cursor
(``_heads``): enqueue is ``list.append``, dequeue advances the cursor, and
the list is recycled (``clear`` + cursor reset) the moment it drains — the
steady state appends into a list that already has capacity, avoiding
per-request allocation on the hot path.  Queue length is always
``len(queue) - head``.

Enqueue is done by the issue path (``SubCore._issue_warp``): one
``queues[bank].append(cu)`` per source operand and ``pending += num_src``.
Duplicate registers of one instruction enqueue separately, matching the
paper's scoring example (two operands in bank 0 count twice).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple, TYPE_CHECKING

from .collector_unit import CollectorUnit

if TYPE_CHECKING:  # pragma: no cover
    from ..obs import Tracer


class ArbitrationUnit:
    """Per-bank read-request queues with single-grant-per-bank arbitration."""

    def __init__(self, num_banks: int, read_ports: int = 1, score_latency: int = 0):
        if num_banks < 1:
            raise ValueError("num_banks must be >= 1")
        if read_ports < 1:
            raise ValueError("read_ports must be >= 1")
        self.num_banks = num_banks
        self.read_ports = read_ports
        self.score_latency = score_latency
        self.queues: List[List[CollectorUnit]] = [[] for _ in range(num_banks)]
        #: Head cursor per bank queue: queues[b][_heads[b]:] are waiting.
        self._heads: List[int] = [0] * num_banks
        # Change-history of queue lengths for delayed (pipelined) RBA
        # scoring: entries are (cycle, lengths-at-end-of-cycle); only kept
        # when score_latency > 0, and trimmed as it grows to at most
        # score_latency + 1 entries, whatever the scheduler reads of it.
        self._history: Deque[Tuple[int, List[int]]] = deque([(-1, [0] * num_banks)])
        # statistics
        self.total_grants = 0  # cumulative statistic; snapshot/delta reported
        self.conflict_cycles = 0  # cumulative statistic; snapshot/delta reported
        self.pending = 0  # tracks queued requests; drains with the kernel
        # event tracing (repro.obs); attached by the owning SM when active
        self.tracer: Optional["Tracer"] = None  # wiring installed once per process, survives runs
        self._sm_id = -1  # wiring installed once per process, survives runs
        self._subcore_id = -1  # wiring installed once per process, survives runs

    def attach_tracer(self, tracer: "Tracer", sm_id: int, subcore_id: int) -> None:
        """Attach the event tracer; conflict cycles emit bank-conflict events."""
        self.tracer = tracer
        self._sm_id = sm_id
        self._subcore_id = subcore_id

    def begin_run(self) -> None:
        """Reset transient per-launch state (queues drain with the kernel).

        Queues are empty whenever no kernel is in flight; this clears the
        delayed-scoring history so a second launch sees the same all-zero
        snapshot a fresh unit starts with.  Cumulative statistics persist.
        """
        for q in self.queues:
            q.clear()
        for i in range(self.num_banks):
            self._heads[i] = 0
        self.pending = 0
        self._history.clear()
        self._history.append((-1, [0] * self.num_banks))

    # -- per-cycle arbitration ---------------------------------------------------

    def grant_cycle(self, now: int) -> int:
        """Grant up to ``read_ports`` requests on every bank; returns grants."""
        if not self.pending:
            if self.score_latency:
                self._record(now)
            return 0
        grants = 0
        conflicted = False
        heads = self._heads
        if self.read_ports == 1:
            # Volta's single read port per bank.  CollectorUnit's
            # operand_granted is inlined (guard included): this loop runs
            # for every bank of every sub-core on every collect cycle.
            for bank, q in enumerate(self.queues):
                head = heads[bank]
                qlen = len(q)
                if head < qlen:
                    cu = q[head]
                    po = cu.pending_operands
                    if po <= 0:
                        raise RuntimeError(
                            f"CU {cu.cu_id} grant with no pending operands"
                        )
                    cu.pending_operands = po - 1
                    grants += 1
                    head += 1
                    if head < qlen:
                        conflicted = True
                        heads[bank] = head
                    else:
                        # Drained: recycle the list, keeping its capacity.
                        q.clear()
                        heads[bank] = 0
        else:
            for bank, q in enumerate(self.queues):
                head = heads[bank]
                qlen = len(q)
                end = head + self.read_ports
                if end > qlen:
                    end = qlen
                while head < end:
                    q[head].operand_granted()
                    grants += 1
                    head += 1
                if head < qlen:
                    conflicted = True
                    heads[bank] = head
                else:
                    q.clear()
                    heads[bank] = 0
        self.pending -= grants
        self.total_grants += grants
        if conflicted:
            self.conflict_cycles += 1
            if self.tracer is not None:
                self.tracer.bank_conflict(
                    now, self._sm_id, self._subcore_id, self.pending
                )
        if self.score_latency:
            self._record(now)
        return grants

    # -- RBA scoring interface ------------------------------------------------------

    def _record(self, now: int) -> None:  # simcheck: hot-ok -- delayed-RBA scoring history is inherently a per-cycle snapshot
        """Log end-of-cycle queue lengths for the delayed scoring path."""
        lengths = [len(q) - h for q, h in zip(self.queues, self._heads)]
        hist = self._history
        if hist[-1][0] == now:
            hist[-1] = (now, lengths)
        elif hist[-1][1] != lengths:
            hist.append((now, lengths))
            # Drop what no later :meth:`queue_lengths` (whose target is at
            # least ``now - score_latency``) can return; the entry just
            # appended is newer than that target, so the loop stops on it.
            target = now - self.score_latency
            while hist[1][0] <= target:
                hist.popleft()

    def queue_lengths(self, now: int) -> List[int]:  # simcheck: hot-ok -- RBA scoring inherently materializes the visible lengths
        """Queue lengths as visible to the scheduler at ``now``.

        With ``score_latency == 0`` this is the live state; otherwise the
        state from ``score_latency`` cycles ago, modelling a pipelined
        score-update path (Sec. VI-B4): scores still arrive every cycle,
        just delayed.

        Note (documented divergence): the paper measures < 0.1 % average
        loss at 20-cycle staleness because its real applications have long
        stable periods of register-file pressure.  Our synthetic traces
        oscillate faster, so part of RBA's gain here comes from
        cycle-fresh alternation and decays with staleness — the latency
        study reports that graceful degradation rather than the paper's
        near-zero figure (see EXPERIMENTS.md).
        """
        if self.score_latency == 0:
            return [len(q) - h for q, h in zip(self.queues, self._heads)]
        target = now - self.score_latency
        hist = self._history
        # Drop entries that can never be needed again (strictly older than
        # the newest entry at or before the target).
        while len(hist) > 1 and hist[1][0] <= target:
            hist.popleft()
        return hist[0][1] if hist[0][0] <= target else [0] * self.num_banks

    def bank_idle(self, bank: int) -> bool:
        """True when a bank's queue is empty (a bank-stealing opportunity)."""
        return len(self.queues[bank]) == self._heads[bank]

    # -- sanitizer hooks -----------------------------------------------------

    def queued_requests(self) -> int:
        """Ground truth for ``pending``: summed per-bank queue lengths."""
        return sum(len(q) - h for q, h in zip(self.queues, self._heads))

    def validate(self) -> list:
        """Queue-accounting invariants (consumed by the sanitizer)."""
        errors = []
        queued = self.queued_requests()
        if self.pending != queued:
            errors.append(
                {
                    "invariant": "arbitration-accounting",
                    "message": (
                        "cached pending count diverged from summed queue "
                        "lengths (an enqueue or grant went unaccounted)"
                    ),
                    "counter": "arbitration.pending",
                    "expected": queued,
                    "actual": self.pending,
                }
            )
        for bank, (q, h) in enumerate(zip(self.queues, self._heads)):
            if not 0 <= h <= len(q) or (h == len(q) and h != 0):
                errors.append(
                    {
                        "invariant": "arbitration-accounting",
                        "message": (
                            f"bank {bank} head cursor inconsistent with its "
                            "queue (drained queues must be recycled)"
                        ),
                        "counter": "arbitration._heads",
                        "expected": f"0 <= head < {len(q)} or head == len == 0",
                        "actual": h,
                    }
                )
        if self.pending < 0 or self.total_grants < 0 or self.conflict_cycles < 0:
            errors.append(
                {
                    "invariant": "arbitration-accounting",
                    "message": "negative arbitration counter",
                    "counter": "arbitration.counters",
                    "expected": ">= 0",
                    "actual": (self.pending, self.total_grants, self.conflict_cycles),
                }
            )
        return errors
