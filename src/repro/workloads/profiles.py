"""Statistical application profiles.

The paper evaluates on SASS traces of 112 real applications.  We substitute
seeded synthetic traces drawn from per-application *profiles*: statistical
descriptors of exactly the trace properties the studied mechanisms respond
to — instruction mix, operand counts, register working sets and their bank
coherence, memory behaviour, and inter-warp divergence.  See DESIGN.md
("Substitutions") for why this preserves the evaluation's shape.

Knob cheat-sheet (what creates which paper effect):

``bank_bias`` / ``phase_len``
    Probability that an instruction draws all its sources from a single
    bank-parity class, and how long such phases last.  High bias + long
    phases produce the dynamic inter-warp bank contention that the RBA
    scheduler exploits (cuGraph-style register reuse).
``divergence_period`` / ``divergence_multiplier``
    Every ``period``-th warp of a CTA executes ``multiplier`` times the
    instructions.  Period 4 reproduces TPC-H's one-long-warp-in-four
    pattern that SRR was crafted for (Sec. IV-B2).
``dep_fraction``
    Probability an instruction reads the previous instruction's result —
    the intra-warp ILP throttle.
``mem_fraction`` / ``mem_locality``
    Global-memory intensity and its L1 hit affinity; high fraction + low
    locality makes an app memory-bound (insensitive to partitioning).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

#: Version of the profile → trace synthesis pipeline.  Bump whenever the
#: synthesizer (:mod:`repro.workloads.synth`), a kernel builder
#: (:mod:`repro.workloads.microbench`) or the profile semantics change in a
#: way that alters generated traces: the experiment engine's disk cache
#: keys include this number, so bumping it invalidates every cached result
#: derived from the old traces.
PROFILE_VERSION = 1


@dataclass(frozen=True)
class AppProfile:
    """Everything needed to synthesize one application's kernel trace."""

    name: str
    suite: str
    seed: int

    # -- shape -------------------------------------------------------------
    warps_per_cta: int = 32
    num_ctas: int = 4
    insts_per_warp: int = 200

    # -- instruction mix (fractions of all instructions) ---------------------
    mem_fraction: float = 0.10
    store_fraction: float = 0.2      # of memory instructions
    lds_fraction: float = 0.0
    sfu_fraction: float = 0.0
    tensor_fraction: float = 0.0
    fp_fraction: float = 0.5         # FP share of plain arithmetic

    #: P(instruction has 1, 2, 3 register sources)
    operand_weights: Tuple[float, float, float] = (0.2, 0.4, 0.4)

    # -- register behaviour ----------------------------------------------------
    read_regs: int = 16
    write_regs: int = 16
    bank_bias: float = 0.0
    phase_len: int = 48
    dep_fraction: float = 0.15

    # -- memory behaviour ---------------------------------------------------------
    mem_locality: float = 0.7
    coalesced_lines: int = 4         # lines per streaming (miss-side) access
    shared_conflict_degree: int = 1

    # -- inter-warp divergence -------------------------------------------------
    divergence_period: int = 0
    divergence_multiplier: float = 1.0

    # -- CTA attributes -----------------------------------------------------------
    barrier: bool = True
    shared_mem_per_cta: int = 0

    def __post_init__(self) -> None:
        if self.warps_per_cta < 1 or self.num_ctas < 1 or self.insts_per_warp < 1:
            raise ValueError("shape parameters must be positive")
        fracs = (
            self.mem_fraction,
            self.lds_fraction,
            self.sfu_fraction,
            self.tensor_fraction,
        )
        if any(f < 0 for f in fracs) or sum(fracs) > 1.0 + 1e-9:
            raise ValueError("instruction-mix fractions must be >= 0 and sum to <= 1")
        for f in (
            self.fp_fraction,
            self.bank_bias,
            self.dep_fraction,
            self.mem_locality,
            self.store_fraction,
        ):
            if not 0.0 <= f <= 1.0:
                raise ValueError("probability knobs must be in [0, 1]")
        if len(self.operand_weights) != 3 or any(w < 0 for w in self.operand_weights):
            raise ValueError("operand_weights must be three non-negative weights")
        if sum(self.operand_weights) <= 0:
            raise ValueError("operand_weights must not all be zero")
        if self.divergence_period < 0:
            raise ValueError("divergence_period must be >= 0")
        if self.divergence_multiplier < 1.0:
            raise ValueError("divergence_multiplier must be >= 1")
        if self.read_regs < 2 or self.write_regs < 1:
            raise ValueError("register windows too small")
        if self.phase_len < 1 or self.coalesced_lines < 1:
            raise ValueError("phase_len and coalesced_lines must be >= 1")

    # -- derived -------------------------------------------------------------

    @property
    def regs_per_thread(self) -> int:
        """Architectural registers the synthesized kernel declares."""
        return self.read_regs + self.write_regs + 2

    @property
    def mean_operands(self) -> float:
        w = self.operand_weights
        total = sum(w)
        return (w[0] + 2 * w[1] + 3 * w[2]) / total

    def warp_lengths(self) -> Tuple[int, ...]:
        """Instruction count of each warp in a CTA (divergence applied)."""
        lengths = []
        for i in range(self.warps_per_cta):
            long = self.divergence_period and i % self.divergence_period == 0
            n = self.insts_per_warp * (self.divergence_multiplier if long else 1.0)
            lengths.append(max(1, int(round(n))))
        return tuple(lengths)

    @property
    def total_instructions(self) -> int:
        return sum(self.warp_lengths()) * self.num_ctas

    def variant(self, **changes) -> "AppProfile":
        return replace(self, **changes)
