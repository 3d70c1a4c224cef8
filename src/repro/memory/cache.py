"""Set-associative cache with MSHR merging.

A deliberately lean timing model: tag lookup is immediate (the latency is
charged by the caller as the level's hit latency), misses allocate an MSHR
entry keyed by line address so that concurrent misses to the same line
merge, and fills install the line with LRU replacement.

The model tracks *when* a line's fill completes so that a request arriving
while its line is still in flight is merged and inherits the in-flight
completion time rather than issuing a duplicate request downstream.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    mshr_merges: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class Cache:
    """One cache level (used for both L1 slices and the shared L2)."""

    def __init__(
        self,
        size_bytes: int,
        line_bytes: int,
        ways: int,
        hit_latency: int,
        mshrs: int,
        name: str = "cache",
    ) -> None:
        if size_bytes % (line_bytes * ways):
            raise ValueError("size must be divisible by line_bytes * ways")
        self.name = name
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = size_bytes // (line_bytes * ways)
        if self.num_sets < 1:
            raise ValueError("cache must have at least one set")
        self.hit_latency = hit_latency
        self.max_mshrs = mshrs
        self.stats = CacheStats()
        # set index -> OrderedDict(line_address -> True), LRU at front
        self._sets: Dict[int, OrderedDict] = {}
        # line address -> cycle the in-flight fill completes
        self._mshr: Dict[int, int] = {}
        # earliest in-flight completion; guards the drain scan
        self._mshr_min = 0

    # -- queries -------------------------------------------------------------

    def set_index(self, line_address: int) -> int:
        return line_address % self.num_sets

    def contains(self, line_address: int) -> bool:
        s = self._sets.get(self.set_index(line_address))
        return s is not None and line_address in s

    def mshrs_free(self, now: int) -> int:
        self._drain_mshrs(now)
        return self.max_mshrs - len(self._mshr)

    # -- access --------------------------------------------------------------

    def probe(self, line_address: int, now: int) -> Tuple[bool, Optional[int]]:
        """Look up a line without side effects beyond LRU update.

        Returns ``(hit, inflight_completion)``: ``hit`` is True when the line
        is resident; ``inflight_completion`` is the fill-completion cycle when
        the line is currently being fetched (an MSHR merge opportunity).
        """
        self._drain_mshrs(now)
        idx = self.set_index(line_address)
        s = self._sets.get(idx)
        if s is not None and line_address in s:
            s.move_to_end(line_address)
            return True, None
        return False, self._mshr.get(line_address)

    def record_hit(self) -> None:
        self.stats.hits += 1

    def record_merge(self) -> None:
        self.stats.misses += 1
        self.stats.mshr_merges += 1

    def allocate_miss(self, line_address: int, fill_cycle: int) -> None:
        """Register a miss whose fill will complete at ``fill_cycle``."""
        self.stats.misses += 1
        if not self._mshr or fill_cycle < self._mshr_min:
            self._mshr_min = fill_cycle
        self._mshr[line_address] = fill_cycle

    def install(self, line_address: int) -> None:
        """Install a line (on fill completion)."""
        idx = self.set_index(line_address)
        # get-or-create: setdefault() would allocate a fresh OrderedDict on
        # every install, even when the set already exists (cycle-hot path).
        s = self._sets.get(idx)
        if s is None:
            s = self._sets[idx] = OrderedDict()  # simcheck: hot-ok -- one OrderedDict per cache set, on first touch only
        if line_address in s:
            s.move_to_end(line_address)
            return
        if len(s) >= self.ways:
            s.popitem(last=False)
            self.stats.evictions += 1
        s[line_address] = True

    def _drain_mshrs(self, now: int) -> None:
        """Retire completed fills: install their lines and free the MSHRs."""
        if not self._mshr or now < self._mshr_min:
            return
        done = [addr for addr, t in self._mshr.items() if t <= now]  # simcheck: hot-ok -- only reached when a fill completed (guarded by _mshr_min); snapshot needed before deletion
        for addr in done:
            del self._mshr[addr]
            self.install(addr)
        if self._mshr:
            self._mshr_min = min(self._mshr.values())

    def flush(self) -> None:
        """Drop all resident lines and in-flight fills (test helper)."""
        self._sets.clear()
        self._mshr.clear()

    def begin_run(self) -> None:
        """Cold-start the cache for a new kernel launch.

        Back-to-back ``GPU.run`` calls model independent launches, so a
        second kernel must see exactly the state a fresh GPU would: no
        resident lines and, critically, no in-flight MSHR fills left over
        from the previous kernel's trailing stores (a load completing
        "mid-run" from a stale fill would shift timing and LRU state).
        Cumulative ``stats`` are untouched — they partition across runs.
        """
        self._sets.clear()
        self._mshr.clear()
        self._mshr_min = 0
