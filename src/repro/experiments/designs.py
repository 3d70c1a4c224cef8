"""Named design points used throughout the evaluation.

Every figure compares designs against the same baseline (GTO warp
scheduling + round-robin sub-core assignment on a 4-way partitioned Volta
SM), so designs are addressed by short stable names that simulation
points carry; a point's ``overrides`` replace fields on top of its design.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List

from ..config.gpu_config import GPUConfig, SchedulerPolicy
from ..config.presets import (
    bank_stealing,
    fully_connected,
    rba,
    shuffle,
    shuffle_rba,
    srr,
    volta_v100,
    with_cus,
)


def _fc_rba() -> GPUConfig:
    cfg = fully_connected().replace(scheduler=SchedulerPolicy.RBA)
    return cfg.replace(name=cfg.name + "+rba")


def _srr_rba() -> GPUConfig:
    cfg = srr().replace(scheduler=SchedulerPolicy.RBA)
    return cfg.replace(name=cfg.name + "+rba")


def _rba_latency(cycles: int) -> Callable[[], GPUConfig]:
    def make() -> GPUConfig:
        cfg = rba().replace(rba_score_latency=cycles)
        return cfg.replace(name=f"{cfg.name}-lat{cycles}")

    return make


def _rba_banks(banks: int) -> GPUConfig:
    cfg = rba().replace(rf_banks_per_subcore=banks)
    return cfg.replace(name=f"{cfg.name}-{banks}banks")


def _baseline_banks(banks: int) -> GPUConfig:
    cfg = volta_v100().replace(rf_banks_per_subcore=banks)
    return cfg.replace(name=f"{cfg.name}-{banks}banks")


def _two_level() -> GPUConfig:
    cfg = volta_v100().replace(scheduler=SchedulerPolicy.TWO_LEVEL)
    return cfg.replace(name=cfg.name + "+two-level")


def _shuffle_table(entries: int) -> GPUConfig:
    cfg = shuffle().replace(hash_table_entries=entries)
    return cfg.replace(name=f"{cfg.name}-{entries}entry")


DESIGNS: Dict[str, Callable[[], GPUConfig]] = {
    "baseline": volta_v100,
    "rba": rba,
    "srr": srr,
    "shuffle": shuffle,
    "shuffle_rba": shuffle_rba,
    "srr_rba": _srr_rba,
    "fully_connected": fully_connected,
    "fc_rba": _fc_rba,
    "bank_stealing": bank_stealing,
    "two_level": _two_level,
    "cu1": lambda: with_cus(1),
    "cu2": lambda: with_cus(2),
    "cu3": lambda: with_cus(3),
    "cu4": lambda: with_cus(4),
    "cu8": lambda: with_cus(8),
    "cu16": lambda: with_cus(16),
    "rba_4banks": lambda: _rba_banks(4),
    "baseline_4banks": lambda: _baseline_banks(4),
    "shuffle_4entry": lambda: _shuffle_table(4),
    "shuffle_16entry": lambda: _shuffle_table(16),
}

for _lat in (0, 1, 2, 5, 10, 20):
    DESIGNS[f"rba_lat{_lat}"] = _rba_latency(_lat)


def get_design(name: str) -> GPUConfig:
    """Instantiate a named design point."""
    try:
        return DESIGNS[name]()
    except KeyError:
        raise KeyError(
            f"unknown design {name!r}; options: {sorted(DESIGNS)}"
        ) from None


def design_names() -> List[str]:
    return sorted(DESIGNS)


def overrides_from(config: GPUConfig) -> Dict[str, Any]:
    """The overrides that turn the baseline design into ``config`` (``num_sms`` is the point's)."""
    base = get_design("baseline")
    return {
        f.name: getattr(config, f.name)
        for f in dataclasses.fields(config)
        if f.name != "num_sms" and getattr(config, f.name) != getattr(base, f.name)
    }
