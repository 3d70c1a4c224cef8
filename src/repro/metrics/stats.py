"""Simulation statistics assembled after a kernel run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class SMStats:
    """Per-SM counters snapshotted at the end of a run."""

    sm_id: int
    instructions: int
    issue_counts: List[int]
    rf_reads: int
    bank_conflict_cycles: int
    ctas_completed: int
    issue_stall_no_cu: int
    issue_stall_no_ready: int
    steals: int
    migrations: int = 0
    rf_read_timeline: Optional[List[Tuple[int, int]]] = None
    warp_finish_cycles: List[int] = field(default_factory=list)
    cta_latencies: List[int] = field(default_factory=list)
    #: Per-sub-core stall-attribution buckets (``repro.obs.stall``), one
    #: dict per sub-core in sub-core order; ``None`` unless the run had
    #: ``GPUConfig.stall_attribution`` set.  Conservation contract: each
    #: dict's values sum to ``cycles * issue_width``.
    stall_cycles: Optional[List[Dict[str, int]]] = None

    def issue_cov(self) -> float:
        """Coefficient of variation of per-sub-core issued instructions.

        The Fig. 17 balance metric: ``sigma / mu`` over the four schedulers'
        issue totals; 0 means perfectly balanced.  numpy is imported here,
        not at module level, so a cache-hit run that reads stats never
        loads it.
        """
        import numpy as np

        counts = np.asarray(self.issue_counts, dtype=float)
        mu = counts.mean()
        if mu == 0:
            return 0.0
        return float(counts.std() / mu)

    # -- conservation cross-checks -------------------------------------------

    def conservation_errors(self) -> List[str]:
        """Violated counter invariants of this per-run SM delta.

        Used by the runtime sanitizer (:mod:`repro.analysis`): every
        per-run delta must be non-negative (a negative delta means a
        counter was reset or double-snapshotted mid-run) and the SM
        instruction total must equal the sum of its sub-core schedulers'
        issue counts.
        """
        errors: List[str] = []
        for counter in (
            "instructions",
            "rf_reads",
            "bank_conflict_cycles",
            "ctas_completed",
            "issue_stall_no_cu",
            "issue_stall_no_ready",
            "steals",
            "migrations",
        ):
            value = getattr(self, counter)
            if value < 0:
                errors.append(
                    f"SM {self.sm_id}: negative per-run delta "
                    f"{counter}={value}"
                )
        if any(n < 0 for n in self.issue_counts):
            errors.append(
                f"SM {self.sm_id}: negative per-sub-core issue count in "
                f"{self.issue_counts}"
            )
        if self.instructions != sum(self.issue_counts):
            errors.append(
                f"SM {self.sm_id}: instructions ({self.instructions}) != "
                f"sum of sub-core issue counts ({sum(self.issue_counts)})"
            )
        errors.extend(self._stall_attribution_errors())
        return errors

    def _stall_attribution_errors(self) -> List[str]:
        """Internal consistency of the stall-attribution buckets.

        The cycle-count conservation check (bucket sums equal
        ``cycles * issue_width``) needs the run's cycle count and lives in
        ``repro.analysis.invariants``; here we check what the SM delta can
        see on its own: no negative buckets, one bucket dict per sub-core
        scheduler, identical sums across sub-cores (every scheduler
        accounts the same cycles), and scheduler-pass issues — the
        ``issued`` buckets plus steal-pass issues — matching the
        instruction total.
        """
        if self.stall_cycles is None:
            return []
        errors: List[str] = []
        if len(self.stall_cycles) != len(self.issue_counts):
            errors.append(
                f"SM {self.sm_id}: {len(self.stall_cycles)} stall-bucket "
                f"dicts for {len(self.issue_counts)} sub-cores"
            )
        for sc_id, buckets in enumerate(self.stall_cycles):
            negative = {k: v for k, v in buckets.items() if v < 0}
            if negative:
                errors.append(
                    f"SM {self.sm_id} sub-core {sc_id}: negative stall "
                    f"buckets {negative}"
                )
        sums = [sum(b.values()) for b in self.stall_cycles]
        if len(set(sums)) > 1:
            errors.append(
                f"SM {self.sm_id}: stall-bucket sums differ across "
                f"sub-cores: {sums}"
            )
        issued = sum(b.get("issued", 0) for b in self.stall_cycles)
        if issued + self.steals != self.instructions:
            errors.append(
                f"SM {self.sm_id}: issued stall-bucket total ({issued}) + "
                f"steals ({self.steals}) != instructions "
                f"({self.instructions})"
            )
        return errors

    # -- cache serialization ------------------------------------------------

    def to_payload(self) -> dict:
        """JSON-safe dict that :meth:`from_payload` restores losslessly."""
        payload = {
            "sm_id": self.sm_id,
            "instructions": self.instructions,
            "issue_counts": list(self.issue_counts),
            "rf_reads": self.rf_reads,
            "bank_conflict_cycles": self.bank_conflict_cycles,
            "ctas_completed": self.ctas_completed,
            "issue_stall_no_cu": self.issue_stall_no_cu,
            "issue_stall_no_ready": self.issue_stall_no_ready,
            "steals": self.steals,
            "migrations": self.migrations,
            "rf_read_timeline": (
                [list(entry) for entry in self.rf_read_timeline]
                if self.rf_read_timeline is not None
                else None
            ),
            "warp_finish_cycles": list(self.warp_finish_cycles),
            "cta_latencies": list(self.cta_latencies),
        }
        if self.stall_cycles is not None:
            # Only present when stall attribution ran, so untraced payloads
            # stay byte-identical to pre-observability behaviour.
            payload["stall_cycles"] = [dict(b) for b in self.stall_cycles]
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "SMStats":
        timeline = payload["rf_read_timeline"]
        return cls(
            sm_id=payload["sm_id"],
            instructions=payload["instructions"],
            issue_counts=list(payload["issue_counts"]),
            rf_reads=payload["rf_reads"],
            bank_conflict_cycles=payload["bank_conflict_cycles"],
            ctas_completed=payload["ctas_completed"],
            issue_stall_no_cu=payload["issue_stall_no_cu"],
            issue_stall_no_ready=payload["issue_stall_no_ready"],
            steals=payload["steals"],
            migrations=payload["migrations"],
            rf_read_timeline=(
                [tuple(entry) for entry in timeline]
                if timeline is not None
                else None
            ),
            warp_finish_cycles=list(payload["warp_finish_cycles"]),
            cta_latencies=list(payload["cta_latencies"]),
            stall_cycles=(
                [dict(b) for b in payload["stall_cycles"]]
                if payload.get("stall_cycles") is not None
                else None
            ),
        )


@dataclass
class SimStats:
    """Whole-run results of :meth:`repro.gpu.GPU.run`."""

    kernel_name: str
    config_name: str
    cycles: int
    instructions: int
    sms: List[SMStats]

    l1_hits: int = 0
    l1_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    dram_accesses: int = 0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def issue_cov(self) -> float:
        """Mean per-SM issue CoV over SMs that issued anything."""
        import numpy as np

        covs = [sm.issue_cov() for sm in self.sms if sm.instructions]
        return float(np.mean(covs)) if covs else 0.0

    def total_rf_reads(self) -> int:
        return sum(sm.rf_reads for sm in self.sms)

    def rf_reads_per_cycle(self) -> float:
        """Average warp-operand reads per cycle per SM.

        Multiply by 32 to get the paper's Fig. 14 unit (4-byte reads per
        cycle, max 256 for 8 banks x 32 lanes).
        """
        if not self.cycles or not self.sms:
            return 0.0
        return self.total_rf_reads() / self.cycles / len(self.sms)

    def bank_conflict_cycles(self) -> int:
        return sum(sm.bank_conflict_cycles for sm in self.sms)

    def summary(self) -> str:
        return (
            f"{self.kernel_name} on {self.config_name}: {self.cycles} cycles, "
            f"{self.instructions} instructions, IPC {self.ipc:.2f}, "
            f"issue CoV {self.issue_cov():.3f}"
        )

    # -- conservation cross-checks -------------------------------------------

    def conservation_errors(self) -> List[str]:
        """Violated counter invariants of this whole-run result.

        GPU totals must be the sums of their per-SM parts, and every
        memory-hierarchy delta must be non-negative.  Aggregated by the
        runtime sanitizer into :class:`repro.analysis.InvariantViolation`.
        """
        errors: List[str] = []
        if self.cycles < 0:
            errors.append(f"negative cycle count {self.cycles}")
        per_sm = sum(sm.instructions for sm in self.sms)
        if self.instructions != per_sm:
            errors.append(
                f"GPU instruction total ({self.instructions}) != sum over "
                f"SMs ({per_sm})"
            )
        for counter in ("l1_hits", "l1_misses", "l2_hits", "l2_misses", "dram_accesses"):
            value = getattr(self, counter)
            if value < 0:
                errors.append(f"negative per-run delta {counter}={value}")
        for sm in self.sms:
            errors.extend(sm.conservation_errors())
        return errors

    # -- cache serialization ------------------------------------------------

    def to_payload(self) -> dict:
        """JSON-safe dict that :meth:`from_payload` restores losslessly.

        This is the on-disk format of the experiment engine's result cache
        (:mod:`repro.experiments.engine`); round-tripping must preserve
        equality — including timelines — or cached and freshly simulated
        results would diverge.
        """
        return {
            "kernel_name": self.kernel_name,
            "config_name": self.config_name,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "sms": [sm.to_payload() for sm in self.sms],
            "l1_hits": self.l1_hits,
            "l1_misses": self.l1_misses,
            "l2_hits": self.l2_hits,
            "l2_misses": self.l2_misses,
            "dram_accesses": self.dram_accesses,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SimStats":
        return cls(
            kernel_name=payload["kernel_name"],
            config_name=payload["config_name"],
            cycles=payload["cycles"],
            instructions=payload["instructions"],
            sms=[SMStats.from_payload(sm) for sm in payload["sms"]],
            l1_hits=payload["l1_hits"],
            l1_misses=payload["l1_misses"],
            l2_hits=payload["l2_hits"],
            l2_misses=payload["l2_misses"],
            dram_accesses=payload["dram_accesses"],
        )
