"""Profiles for the six non-TPC-H benchmark suites (68 apps).

Each suite's profiles are parameterized to stress the bottleneck the paper
attributes to it:

* **cuGraph** — register-intensive INT workloads that "access a limited
  number of registers repeatedly": high bank bias over a small read window,
  long phases.  This is the population where RBA outruns even the
  fully-connected SM (Sec. VI-B1).
* **Parboil / Rodinia / Polybench** — a mix of read-operand-limited
  kernels (the Table III sensitive apps: pb-mriq, pb-mrig, pb-sgemm,
  rod-lavaMD, rod-bp, rod-srad, rod-htsp, ply-2Dcon, ply-3Dcon, ...) and
  memory- or latency-bound fillers that are largely insensitive to
  partitioning — Fig. 1's near-1.0 population.
* **DeepBench / Cutlass** — tensor-pipeline-heavy GEMM/conv kernels with
  well-balanced warps and moderate register pressure.
"""

from __future__ import annotations

from typing import Dict

from .draw import Draw, name_seed
from .profiles import AppProfile


# ---------------------------------------------------------------------------
# cuGraph (7)
# ---------------------------------------------------------------------------

CUGRAPH_APPS = ("cg-lou", "cg-bfs", "cg-sssp", "cg-pgrnk", "cg-wcc", "cg-katz", "cg-hits")


def cugraph_profile(name: str) -> AppProfile:
    rng = Draw(name_seed(name))
    return AppProfile(
        name=name,
        suite="cugraph",
        seed=name_seed(name),
        warps_per_cta=32,
        num_ctas=4,
        insts_per_warp=rng.integers(180, 260),
        mem_fraction=rng.uniform(0.06, 0.12),
        fp_fraction=0.35,
        operand_weights=(0.20, 0.50, 0.30),
        read_regs=12,
        write_regs=16,
        bank_bias=rng.uniform(0.80, 0.95),
        phase_len=rng.integers(48, 96),
        dep_fraction=rng.uniform(0.05, 0.12),
        mem_locality=0.85,
        coalesced_lines=2,
        barrier=False,
    )


# ---------------------------------------------------------------------------
# Parboil (11)
# ---------------------------------------------------------------------------

PARBOIL_SENSITIVE = ("pb-mriq", "pb-mrig", "pb-sgemm", "pb-cutcp", "pb-sad")
PARBOIL_APPS = PARBOIL_SENSITIVE + (
    "pb-stencil",
    "pb-spmv",
    "pb-histo",
    "pb-lbm",
    "pb-tpacf",
    "pb-bfs",
)


def parboil_profile(name: str) -> AppProfile:
    rng = Draw(name_seed(name))
    if name in PARBOIL_SENSITIVE:
        return AppProfile(
            name=name,
            suite="parboil",
            seed=name_seed(name),
            warps_per_cta=32,
            num_ctas=4,
            insts_per_warp=rng.integers(200, 300),
            mem_fraction=rng.uniform(0.04, 0.10),
            fp_fraction=0.55,
            sfu_fraction=0.05 if name == "pb-mriq" else 0.0,
            operand_weights=(0.15, 0.45, 0.40),
            read_regs=16,
            write_regs=16,
            bank_bias=rng.uniform(0.55, 0.80),
            phase_len=rng.integers(40, 72),
            dep_fraction=0.10,
            mem_locality=0.85,
            lds_fraction=0.08 if name == "pb-sgemm" else 0.0,
            shared_mem_per_cta=32 * 1024 if name == "pb-sgemm" else 0,
        )
    return AppProfile(
        name=name,
        suite="parboil",
        seed=name_seed(name),
        warps_per_cta=24,
        num_ctas=4,
        insts_per_warp=rng.integers(120, 200),
        mem_fraction=rng.uniform(0.25, 0.40),
        fp_fraction=0.5,
        operand_weights=(0.35, 0.45, 0.20),
        bank_bias=rng.uniform(0.0, 0.15),
        dep_fraction=0.25,
        mem_locality=rng.uniform(0.35, 0.60),
        coalesced_lines=4 if name != "pb-spmv" else 8,
    )


# ---------------------------------------------------------------------------
# Rodinia (20)
# ---------------------------------------------------------------------------

RODINIA_SENSITIVE = ("rod-lavaMD", "rod-bp", "rod-srad", "rod-htsp")
RODINIA_APPS = RODINIA_SENSITIVE + (
    "rod-nw",
    "rod-kmeans",
    "rod-gaussian",
    "rod-nn",
    "rod-pathfinder",
    "rod-streamcluster",
    "rod-bfs",
    "rod-cfd",
    "rod-lud",
    "rod-myocyte",
    "rod-particlefilter",
    "rod-heartwall",
    "rod-leukocyte",
    "rod-btree",
    "rod-dwt2d",
    "rod-hotspot",
)


def rodinia_profile(name: str) -> AppProfile:
    rng = Draw(name_seed(name))
    if name in RODINIA_SENSITIVE:
        return AppProfile(
            name=name,
            suite="rodinia",
            seed=name_seed(name),
            warps_per_cta=32,
            num_ctas=4,
            insts_per_warp=rng.integers(200, 280),
            mem_fraction=rng.uniform(0.05, 0.10),
            lds_fraction=0.06 if name in ("rod-srad", "rod-htsp") else 0.0,
            fp_fraction=0.55,
            operand_weights=(0.15, 0.45, 0.40),
            read_regs=14,
            write_regs=16,
            bank_bias=rng.uniform(0.55, 0.75),
            phase_len=rng.integers(48, 80),
            dep_fraction=0.10,
            mem_locality=0.85,
            shared_mem_per_cta=16 * 1024,
        )
    # Fillers span latency-bound, memory-bound and mildly divergent shapes.
    divergent = name in ("rod-bfs", "rod-particlefilter", "rod-myocyte")
    return AppProfile(
        name=name,
        suite="rodinia",
        seed=name_seed(name),
        warps_per_cta=rng.choice([16, 24, 32]),
        num_ctas=4,
        insts_per_warp=rng.integers(100, 220),
        mem_fraction=rng.uniform(0.18, 0.35),
        fp_fraction=rng.uniform(0.4, 0.6),
        operand_weights=(0.30, 0.45, 0.25),
        bank_bias=rng.uniform(0.0, 0.20),
        dep_fraction=rng.uniform(0.15, 0.30),
        mem_locality=rng.uniform(0.40, 0.70),
        coalesced_lines=rng.choice([1, 2, 4]),
        divergence_period=8 if divergent else 0,
        divergence_multiplier=rng.uniform(1.8, 2.6) if divergent else 1.0,
    )


# ---------------------------------------------------------------------------
# Polybench (15)
# ---------------------------------------------------------------------------

POLYBENCH_SENSITIVE = ("ply-2Dcon", "ply-3Dcon")
POLYBENCH_APPS = POLYBENCH_SENSITIVE + (
    "ply-atax",
    "ply-bicg",
    "ply-gemm",
    "ply-gesummv",
    "ply-mvt",
    "ply-syrk",
    "ply-syr2k",
    "ply-2mm",
    "ply-3mm",
    "ply-corr",
    "ply-covar",
    "ply-fdtd2d",
    "ply-gramschmidt",
)


def polybench_profile(name: str) -> AppProfile:
    rng = Draw(name_seed(name))
    if name in POLYBENCH_SENSITIVE:
        return AppProfile(
            name=name,
            suite="polybench",
            seed=name_seed(name),
            warps_per_cta=32,
            num_ctas=4,
            insts_per_warp=rng.integers(220, 300),
            mem_fraction=0.06,
            fp_fraction=0.6,
            operand_weights=(0.10, 0.50, 0.40),
            read_regs=16,
            write_regs=16,
            bank_bias=rng.uniform(0.60, 0.80),
            phase_len=rng.integers(56, 96),
            dep_fraction=0.08,
            mem_locality=0.9,
        )
    gemm_like = name in ("ply-gemm", "ply-2mm", "ply-3mm", "ply-syrk", "ply-syr2k")
    return AppProfile(
        name=name,
        suite="polybench",
        seed=name_seed(name),
        warps_per_cta=rng.choice([16, 32]),
        num_ctas=4,
        insts_per_warp=rng.integers(120, 220),
        mem_fraction=0.15 if gemm_like else rng.uniform(0.28, 0.42),
        fp_fraction=0.65,
        operand_weights=(0.15, 0.45, 0.40) if gemm_like else (0.35, 0.45, 0.20),
        bank_bias=rng.uniform(0.10, 0.30) if gemm_like else 0.05,
        dep_fraction=0.15,
        mem_locality=0.75 if gemm_like else rng.uniform(0.30, 0.55),
        coalesced_lines=1 if gemm_like else 4,
    )


# ---------------------------------------------------------------------------
# DeepBench (8)
# ---------------------------------------------------------------------------

DEEPBENCH_APPS = (
    "db-conv-tr",
    "db-conv-inf",
    "db-rnn-tr",
    "db-rnn-inf",
    "db-gemm-tr",
    "db-gemm-inf",
    "db-conv2-tr",
    "db-conv2-inf",
)


def deepbench_profile(name: str) -> AppProfile:
    rng = Draw(name_seed(name))
    train = name.endswith("-tr")
    return AppProfile(
        name=name,
        suite="deepbench",
        seed=name_seed(name),
        warps_per_cta=32,
        num_ctas=4,
        insts_per_warp=rng.integers(160, 240),
        mem_fraction=rng.uniform(0.10, 0.18),
        tensor_fraction=rng.uniform(0.15, 0.30),
        fp_fraction=0.7,
        operand_weights=(0.15, 0.45, 0.40),
        read_regs=16,
        write_regs=16,
        bank_bias=rng.uniform(0.15, 0.35),
        dep_fraction=0.12 if train else 0.18,
        mem_locality=0.8,
        lds_fraction=0.05,
        shared_mem_per_cta=32 * 1024,
    )


# ---------------------------------------------------------------------------
# Cutlass (7)
# ---------------------------------------------------------------------------

CUTLASS_APPS = (
    "cutlass-256",
    "cutlass-512",
    "cutlass-1024",
    "cutlass-2048",
    "cutlass-4096",
    "cutlass-gemm-64",
    "cutlass-conv-128",
)


def cutlass_profile(name: str) -> AppProfile:
    rng = Draw(name_seed(name))
    return AppProfile(
        name=name,
        suite="cutlass",
        seed=name_seed(name),
        warps_per_cta=16,
        num_ctas=6,
        insts_per_warp=rng.integers(180, 280),
        mem_fraction=0.08,
        tensor_fraction=0.30,
        lds_fraction=0.10,
        fp_fraction=0.7,
        operand_weights=(0.10, 0.40, 0.50),
        read_regs=18,
        write_regs=16,
        bank_bias=rng.uniform(0.10, 0.25),
        dep_fraction=0.08,
        mem_locality=0.9,
        shared_mem_per_cta=48 * 1024,
        shared_conflict_degree=1,
    )


# ---------------------------------------------------------------------------

def all_suite_profiles() -> Dict[str, AppProfile]:
    """The 68 non-TPC-H app profiles, keyed by name."""
    out: Dict[str, AppProfile] = {}
    for name in CUGRAPH_APPS:
        out[name] = cugraph_profile(name)
    for name in PARBOIL_APPS:
        out[name] = parboil_profile(name)
    for name in RODINIA_APPS:
        out[name] = rodinia_profile(name)
    for name in POLYBENCH_APPS:
        out[name] = polybench_profile(name)
    for name in DEEPBENCH_APPS:
        out[name] = deepbench_profile(name)
    for name in CUTLASS_APPS:
        out[name] = cutlass_profile(name)
    return out
