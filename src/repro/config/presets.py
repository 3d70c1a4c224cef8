"""Named configuration presets used throughout the evaluation.

Each function returns a fresh :class:`~repro.config.gpu_config.GPUConfig`.
The Volta V100 preset is the paper's baseline (Table II); the Kepler and
Ampere presets exist for the Fig. 3 hardware microbenchmark study; the
fully-connected preset is the hypothetical monolithic SM of Fig. 1.
"""

from __future__ import annotations

from .gpu_config import AssignmentPolicy, GPUConfig, SchedulerPolicy


def volta_v100(**overrides) -> GPUConfig:
    """The paper's baseline: V100, 4 sub-cores, 2 banks + 2 CUs per sub-core."""
    return GPUConfig(name="volta-v100").replace(**overrides) if overrides else GPUConfig(name="volta-v100")


def ampere_a100(**overrides) -> GPUConfig:
    """Ampere A100 model: same 4-way partitioning, more SMs."""
    cfg = GPUConfig(
        name="ampere-a100",
        num_sms=108,
        subcores_per_sm=4,
        rf_banks_per_subcore=2,
        collector_units_per_subcore=2,
    )
    return cfg.replace(**overrides) if overrides else cfg


def kepler(**overrides) -> GPUConfig:
    """Kepler model: a monolithic (unpartitioned) SM.

    Kepler SMXs had four schedulers but no hard partitioning; warps could use
    any execution resource.  We model it as a fully-connected SM with the
    aggregate bank/CU pool and 4 issue slots per cycle.
    """
    cfg = GPUConfig(
        name="kepler",
        num_sms=15,
        subcores_per_sm=1,
        issue_width=4,
        rf_banks_per_subcore=8,
        collector_units_per_subcore=8,
        fp32_lanes=64,
        int_lanes=64,
        sfu_lanes=16,
        tensor_units=0,
        ldst_units=32,
    )
    return cfg.replace(**overrides) if overrides else cfg


def fully_connected(base: GPUConfig | None = None, **overrides) -> GPUConfig:
    """The hypothetical fully-connected SM of Fig. 1.

    Same aggregate capacity as ``base`` (default: the Volta baseline) —
    4 issue slots, 8 banks, 8 CUs, 4x execution lanes — but in one shared,
    unpartitioned pool.
    """
    if base is None:
        base = volta_v100()
    n = base.subcores_per_sm
    cfg = base.replace(
        name=base.name + "-fully-connected",
        subcores_per_sm=1,
        issue_width=base.issue_width * n,
        rf_banks_per_subcore=base.rf_banks_per_subcore * n,
        collector_units_per_subcore=base.collector_units_per_subcore * n,
        fp32_lanes=base.fp32_lanes * n,
        int_lanes=base.int_lanes * n,
        sfu_lanes=base.sfu_lanes * n,
        tensor_units=base.tensor_units * n,
        ldst_units=base.ldst_units * n,
    )
    return cfg.replace(**overrides) if overrides else cfg


def tpch_config(**overrides) -> GPUConfig:
    """V100 limited to 20 SMs and 8 GB, as the paper does for TPC-H."""
    cfg = volta_v100().replace(name="volta-v100-tpch", num_sms=20)
    return cfg.replace(**overrides) if overrides else cfg


def rba(base: GPUConfig | None = None, **overrides) -> GPUConfig:
    """Baseline + the Register-Bank-Aware warp scheduler."""
    cfg = (base or volta_v100()).replace(scheduler=SchedulerPolicy.RBA)
    cfg = cfg.replace(name=cfg.name + "+rba")
    return cfg.replace(**overrides) if overrides else cfg


def srr(base: GPUConfig | None = None, **overrides) -> GPUConfig:
    """Baseline + Skewed-Round-Robin hashed sub-core assignment."""
    cfg = (base or volta_v100()).replace(assignment=AssignmentPolicy.SRR)
    cfg = cfg.replace(name=cfg.name + "+srr")
    return cfg.replace(**overrides) if overrides else cfg


def shuffle(base: GPUConfig | None = None, **overrides) -> GPUConfig:
    """Baseline + Random-Shuffle hashed sub-core assignment."""
    cfg = (base or volta_v100()).replace(assignment=AssignmentPolicy.SHUFFLE)
    cfg = cfg.replace(name=cfg.name + "+shuffle")
    return cfg.replace(**overrides) if overrides else cfg


def shuffle_rba(base: GPUConfig | None = None, **overrides) -> GPUConfig:
    """The paper's combined design: Shuffle assignment + RBA scheduling."""
    cfg = (base or volta_v100()).replace(
        assignment=AssignmentPolicy.SHUFFLE, scheduler=SchedulerPolicy.RBA
    )
    cfg = cfg.replace(name=cfg.name + "+shuffle+rba")
    return cfg.replace(**overrides) if overrides else cfg


def bank_stealing(base: GPUConfig | None = None, **overrides) -> GPUConfig:
    """The register bank-stealing comparison point [Jing et al., ref 36]."""
    cfg = (base or volta_v100()).replace(scheduler=SchedulerPolicy.BANK_STEALING)
    cfg = cfg.replace(name=cfg.name + "+bank-stealing")
    return cfg.replace(**overrides) if overrides else cfg


def with_cus(n: int, base: GPUConfig | None = None) -> GPUConfig:
    """Baseline with ``n`` collector units per sub-core (Fig. 12 sweep)."""
    cfg = (base or volta_v100()).replace(collector_units_per_subcore=n)
    return cfg.replace(name=f"{cfg.name}-{n}cu")


PRESETS = {
    "volta": volta_v100,
    "ampere": ampere_a100,
    "kepler": kepler,
    "fully_connected": fully_connected,
    "tpch": tpch_config,
    "rba": rba,
    "srr": srr,
    "shuffle": shuffle,
    "shuffle_rba": shuffle_rba,
    "bank_stealing": bank_stealing,
}
