"""TPC-H query workload models (compressed and uncompressed databases).

The paper runs the 22 TPC-H queries through spark-rapids on a 100 GB
database, in two flavours: *uncompressed* (raw parquet) and *compressed*
(snappy parquet).  The decisive trace property is inter-warp divergence
from warp-specialized kernels: most queries exhibit one long-running warp
in every four (the pattern SRR was crafted for), and the compressed
flavour adds the highly warp-specialized snappy decompression kernel with
issue imbalance "on the order of 100x".

We model each query as a profile with ``divergence_period = 4``; the long
warps are compute/INT-heavy (decompression, expression evaluation,
hashing) while the short warps are scan/filter-shaped and memory-heavy —
which is what lets issue-count imbalance (Fig. 17's CoV ≈ 0.8) coexist
with wall-clock speedups in the tens of percent rather than 4x.
Per-query parameters vary deterministically by query number; query 8 is
given the deepest divergence (the paper's largest CoV, 1.01, and largest
balancing gain, 30.8 %).
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Dict, List

import numpy as np

from .profiles import AppProfile

if TYPE_CHECKING:
    from ..trace.kernel_trace import KernelTrace

NUM_QUERIES = 22


def _seed(name: str) -> int:
    return zlib.crc32(name.encode())


def tpch_profile(query: int, compressed: bool) -> AppProfile:
    """Profile of one TPC-H query."""
    if not 1 <= query <= NUM_QUERIES:
        raise ValueError(f"TPC-H has queries 1..{NUM_QUERIES}, got {query}")
    flavour = "tpcC" if compressed else "tpcU"
    name = f"{flavour}-q{query}"
    rng = np.random.default_rng(_seed(name))

    # Divergence depth: uncompressed queries span multipliers ~3-7 (CoV
    # around the paper's 0.8 average); the snappy kernel pushes compressed
    # queries far higher.  Query 8 is pinned at the top of its flavour.
    if compressed:
        multiplier = float(rng.uniform(9.0, 16.0))
        if query == 9:
            multiplier = 18.0
    else:
        multiplier = float(rng.uniform(3.0, 6.0))
        if query == 8:
            multiplier = 7.0

    return AppProfile(
        name=name,
        suite="tpch-compressed" if compressed else "tpch-uncompressed",
        seed=_seed(name),
        warps_per_cta=32,
        num_ctas=4,
        insts_per_warp=int(rng.integers(90, 140)),
        # Query operators are scan-heavy but the *long* (decompression /
        # expression) warps dominate wall time; too much memory dilutes
        # the imbalance tail the balancing designs recover.
        mem_fraction=float(rng.uniform(0.14, 0.22)),
        store_fraction=0.25,
        fp_fraction=0.25,  # DB operators are INT/compare heavy
        operand_weights=(0.35, 0.45, 0.20),
        read_regs=16,
        write_regs=16,
        bank_bias=float(rng.uniform(0.05, 0.20)),
        dep_fraction=0.20,
        mem_locality=float(rng.uniform(0.55, 0.75)),
        coalesced_lines=4,
        divergence_period=4,
        divergence_multiplier=multiplier,
        barrier=True,
        shared_mem_per_cta=16 * 1024,
    )


def tpch_queries(compressed: bool) -> List[AppProfile]:
    """All 22 query profiles of one flavour."""
    return [tpch_profile(q, compressed) for q in range(1, NUM_QUERIES + 1)]


def tpch_kernel(query: int, compressed: bool) -> KernelTrace:
    from .synth import build_kernel

    return build_kernel(tpch_profile(query, compressed))


def all_tpch_profiles() -> Dict[str, AppProfile]:
    """Both flavours keyed by app name (44 apps)."""
    out: Dict[str, AppProfile] = {}
    for compressed in (False, True):
        for p in tpch_queries(compressed):
            out[p.name] = p
    return out
