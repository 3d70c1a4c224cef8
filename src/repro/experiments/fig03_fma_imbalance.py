"""Fig. 3 — FMA microbenchmark slowdown from sub-core issue imbalance.

The paper runs the baseline / balanced / unbalanced layouts (Fig. 4) on
Kepler, Volta and Ampere silicon; we run them on the corresponding
simulator configs.  Expected shape: normalized time ≈ 1.0 everywhere
except ``unbalanced`` on partitioned architectures, which lands near 4x
(A100 silicon: 3.9x); Kepler (monolithic) stays flat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..config import ampere_a100, kepler, volta_v100
from ..workloads.microbench import FMA_LAYOUTS
from .designs import overrides_from
from .engine import SimPoint, get_engine
from .report import series_table

ARCHS = ("kepler", "volta", "ampere")
PRESETS = {"kepler": kepler, "volta": volta_v100, "ampere": ampere_a100}


@dataclass
class Fig03Result:
    #: arch -> layout -> cycles
    cycles: Dict[str, Dict[str, int]]

    def normalized(self) -> Dict[str, Dict[str, float]]:
        """Execution time normalized to each arch's baseline layout."""
        out: Dict[str, Dict[str, float]] = {}
        for arch, by_layout in self.cycles.items():
            base = by_layout["baseline"]
            out[arch] = {lay: c / base for lay, c in by_layout.items()}
        return out

    def unbalanced_slowdown(self, arch: str) -> float:
        return self.normalized()[arch]["unbalanced"]


def run(fmas: int = 512) -> Fig03Result:
    # The Fig. 4 layouts are fixed programs written against the 4-sub-core
    # round-robin mapping; the same binaries run on every architecture.
    def point(arch: str, layout: str) -> SimPoint:
        kernel = {"layout": layout, "fmas": fmas}
        return SimPoint("fma_microbenchmark", kernel=kernel, overrides=overrides_from(PRESETS[arch]()))

    stats = get_engine().run_many(point(a, lay) for a in ARCHS for lay in FMA_LAYOUTS)
    return Fig03Result({a: {lay: stats[point(a, lay)].cycles for lay in FMA_LAYOUTS} for a in ARCHS})


def format_result(res: Fig03Result) -> str:
    norm = res.normalized()
    table = series_table(
        "Fig. 3: FMA microbenchmark time, normalized to baseline layout",
        "layout",
        list(FMA_LAYOUTS),
        {arch: [norm[arch][lay] for lay in FMA_LAYOUTS] for arch in ARCHS},
        fmt="{:.2f}x",
    )
    return (
        f"{table}\n\n"
        f"unbalanced slowdown — volta: {res.unbalanced_slowdown('volta'):.2f}x, "
        f"ampere: {res.unbalanced_slowdown('ampere'):.2f}x (paper A100: 3.9x), "
        f"kepler: {res.unbalanced_slowdown('kepler'):.2f}x (paper: ~1.0x)"
    )
